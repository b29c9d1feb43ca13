package main

import (
	"math"
	"sort"
	"time"
)

// durationPer is the one conversion every rate or per-unit figure of the
// benchmark goes through: total spread over count units of work, expressed
// in multiples of unit (time.Nanosecond for ns_per_msg, time.Millisecond for
// row gaps, time.Second for plain seconds). A zero count yields 0, the value
// reported for a layer that did no work.
func durationPer(total time.Duration, count int64, unit time.Duration) float64 {
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count) / float64(unit)
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return durationPer(d, 1, time.Second) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// megabytes converts a byte count to MB (10^6 bytes).
func megabytes(b uint64) float64 { return float64(b) / 1e6 }

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ds, or 0 for an empty slice. ds is not modified.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(0, min(rank, len(s))-1)]
}
