package main

import (
	"testing"
	"time"
)

func TestDurationPer(t *testing.T) {
	cases := []struct {
		name  string
		total time.Duration
		count int64
		unit  time.Duration
		want  float64
	}{
		{"one message per millisecond in ns", time.Millisecond, 1, time.Nanosecond, 1e6},
		{"a millisecond over a thousand messages in ns", time.Millisecond, 1000, time.Nanosecond, 1000},
		{"row gap in ms", 13500 * time.Microsecond, 1, time.Millisecond, 13.5},
		{"seconds", 1500 * time.Millisecond, 1, time.Second, 1.5},
		{"reset per vertex", 3 * time.Microsecond, 3 * 1024, time.Nanosecond, 3000.0 / 3072},
		{"no work", time.Second, 0, time.Nanosecond, 0},
	}
	for _, c := range cases {
		if got := durationPer(c.total, c.count, c.unit); got != c.want {
			t.Errorf("%s: durationPer(%v, %d, %v) = %v, want %v", c.name, c.total, c.count, c.unit, got, c.want)
		}
	}
	if got := seconds(250 * time.Millisecond); got != 0.25 {
		t.Errorf("seconds(250ms) = %v, want 0.25", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(100-i) * time.Millisecond
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {97, 97 * time.Millisecond}, {100, 100 * time.Millisecond}, {0.5, time.Millisecond}} {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if ds[0] != 100*time.Millisecond {
		t.Error("percentile reordered its input")
	}
}

func TestOutputGaps(t *testing.T) {
	single := []time.Duration{7 * time.Second}
	if got := outputGaps(single); len(got) != 1 || got[0] != 7*time.Second {
		t.Errorf("single output gaps = %v, want [7s]", got)
	}
	got := outputGaps([]time.Duration{90 * time.Millisecond, 100 * time.Millisecond, 115 * time.Millisecond})
	if len(got) != 2 || got[0] != 10*time.Millisecond || got[1] != 15*time.Millisecond {
		t.Errorf("row gaps = %v, want [10ms 15ms]", got)
	}
}
