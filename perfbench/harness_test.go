package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestWorkloadsTiny runs every workload at a small size, untraced and
// traced: outputs must match their references, the traced run must
// reproduce the untraced result, and the layers' self times must be
// non-negative and sum to the traced total.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst := w.build(5, true)
			m, err := measure(inst, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || len(m.calls) != 1 || len(m.traces) != 1 {
				t.Fatalf("failed %d of %d, %d calls, %d traces: %v", m.failed, m.attempted, len(m.calls), len(m.traces), m.mismatches)
			}
			if got, want := m.traces[0].fingerprint, m.calls[0].fingerprint; got != want {
				t.Fatalf("traced result %q, untraced %q", got, want)
			}
			rec := m.traces[0].rec
			var sum time.Duration
			for layer, d := range rec.selfByLayer() {
				if d < 0 {
					t.Errorf("layer %s self time %v < 0", layer, d)
				}
				sum += d
			}
			if total := rec.root(); sum != total || total <= 0 {
				t.Errorf("layer self times sum to %v, traced total %v", sum, total)
			}
			for _, name := range []string{"engine.workers", "session.build_s"} {
				if v := metricValue(perLayer(m, inst.size(), inst.workers()), name); v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

func metricValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// command must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestRunPrintsEveryMetric checks the command's output against
// BENCHMARK.json: the workloads are the ones it names, and the summary line
// is one JSON object whose metrics are exactly the mode's metrics with their
// units.
func TestRunPrintsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var specNames, names []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if !slices.Equal(names, specNames) {
		t.Fatalf("workloads %v, BENCHMARK.json names %v", names, specNames)
	}
	for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		res, err := runWorkload(workloads[1], 2, 0, trace == 1, true)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := printSummary(&out, res); err != nil {
			t.Fatal(err)
		}
		var s summary
		if err := json.Unmarshal(out.Bytes(), &s); err != nil {
			t.Fatalf("trace %d: summary line: %v", trace, err)
		}
		if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
			t.Fatalf("trace %d: summary %+v", trace, s)
		}
		if len(s.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, BENCHMARK.json lists %d", trace, len(s.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := s.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
