package main

import (
	"time"

	"qcongest/internal/congest"
)

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phases are the engine phases the per-layer metrics name, in report
// order: the Figure 2 Evaluation of exact-diameter, the skeleton-oracle
// Evaluation of apsp, and the Figure 1 BFS of bfs-grid. A phase that a
// workload does not run reports zeros.
var phases = []string{"walk", "wave", "convergecast", "skel_eval", "bfs"}

func durations(xs []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, d := range xs {
		out[i] = seconds(d)
	}
	return out
}

// endToEnd derives the untraced metrics: per-call figures, reported as the
// median over the run's calls, and the live heap after the last call.
func endToEnd(m *measured) []metric {
	var walls, firsts, rounds, allocs, mallocs, p50s, p97s []float64
	for _, s := range m.calls {
		walls = append(walls, seconds(s.wall))
		firsts = append(firsts, seconds(s.outputs[0]))
		rounds = append(rounds, float64(s.rounds))
		allocs = append(allocs, megabytes(s.alloc))
		mallocs = append(mallocs, float64(s.mallocs))
		gaps := outputGaps(s.outputs)
		p50s = append(p50s, durationPer(percentile(gaps, 50), 1, time.Millisecond))
		p97s = append(p97s, durationPer(percentile(gaps, tailPercentile(len(gaps))), 1, time.Millisecond))
	}
	return []metric{
		{"wall_s", median(walls), "s"},
		{"setup_s", median(durations(m.setups)), "s"},
		{"rounds", median(rounds), "count"},
		{"alloc_mb", median(allocs), "MB"},
		{"mallocs", median(mallocs), "count"},
		{"heap_live_mb", megabytes(m.heapLive), "MB"},
		{"first_row_s", median(firsts), "s"},
		{"row_ms_p50", median(p50s), "ms"},
		{"row_ms_p97", median(p97s), "ms"},
	}
}

// tailPercentile is the percentile row_ms_p97 takes of one call's gaps: the
// 97th when at least ten gaps lie beyond it, else the median. Workloads
// that deliver one result per call have one gap per call, too few for any
// tail.
func tailPercentile(samples int) float64 {
	if float64(samples)*0.03 >= 10 {
		return 97
	}
	return 50
}

// outputGaps returns the gaps between consecutive outputs of one call. A
// call that delivers a single result has one gap: the result's latency.
func outputGaps(outputs []time.Duration) []time.Duration {
	if len(outputs) == 1 {
		return outputs
	}
	gaps := make([]time.Duration, len(outputs)-1)
	for i := range gaps {
		gaps[i] = outputs[i+1] - outputs[i]
	}
	return gaps
}

// perLayer derives the traced metrics: each figure is computed per traced
// run and the median over runs is reported (the counts among them are
// identical across runs, which checkDeterminism enforces). Graph and
// topology builds that are part of set-up come from the set-up repetitions.
func perLayer(m *measured, n, workers int) []metric {
	if len(m.traces) == 0 {
		return nil
	}
	graphS, topoS := median(durations(m.graphT)), median(durations(m.topoT))
	var rows [][]metric
	var walls, totals []float64
	for _, tr := range m.traces {
		rows = append(rows, layerRow(tr, graphS, topoS, n, workers))
		totals = append(totals, seconds(tr.rec.root()))
	}
	for _, s := range m.calls {
		walls = append(walls, seconds(s.wall))
	}
	var out []metric
	for i := range rows[0] {
		vals := make([]float64, len(rows))
		for j, row := range rows {
			vals[j] = row[i].Value
		}
		out = append(out, metric{rows[0][i].Name, median(vals), rows[0][i].Unit})
	}
	return append(out, metric{"trace.overhead_s", median(totals) - median(walls), "s"})
}

// layerRow computes the per-layer figures of one traced run. setupGraphS
// and setupTopoS are the set-up's graph and topology build seconds; a
// topology built inside the traced total adds its span.
func layerRow(tr traceResult, setupGraphS, setupTopoS float64, n, workers int) []metric {
	rec := tr.rec
	self := rec.selfByLayer()
	topo, _ := rec.sum("topology.build")
	pre, _ := rec.sum("preprocess")
	skel, _ := rec.sum("skel.init")
	build, _ := rec.sum("session.build")
	reset, resets := rec.sum("session.reset")
	out := []metric{
		{"graph.build_s", setupGraphS, "s"},
		{"topology.build_s", setupTopoS + seconds(topo), "s"},
		{"preprocess.s", seconds(pre), "s"},
		{"preprocess.rounds", float64(tr.counts["preprocess.rounds"]), "count"},
		{"preprocess.msgs", float64(tr.counts["preprocess.msgs"]), "count"},
		{"skel.init_s", seconds(skel), "s"},
		{"skel.init_rounds", float64(tr.counts["skel.init_rounds"]), "count"},
		{"skel.init_msgs", float64(tr.counts["skel.init_msgs"]), "count"},
		{"session.build_s", seconds(build), "s"},
		{"session.reset_s", seconds(reset), "s"},
		{"session.resets", float64(resets), "count"},
		{"session.reset_ns_per_vertex", durationPer(reset, resets*int64(n), time.Nanosecond), "ns"},
	}
	for _, p := range phases {
		d, _ := rec.sum("engine." + p)
		var pm congest.Metrics
		if m := tr.phases[p]; m != nil {
			pm = *m
		}
		rounds, msgs := int64(pm.Rounds), int64(pm.Messages)
		out = append(out,
			metric{"engine." + p + ".s", seconds(d), "s"},
			metric{"engine." + p + ".rounds", float64(rounds), "count"},
			metric{"engine." + p + ".msgs", float64(msgs), "count"},
			metric{"engine." + p + ".bits", float64(pm.Bits), "bits"},
			metric{"engine." + p + ".ns_per_msg", durationPer(d, msgs, time.Nanosecond), "ns"},
			metric{"engine." + p + ".ns_per_round", durationPer(d, rounds, time.Nanosecond), "ns"},
			metric{"engine." + p + ".idle_round_ratio", ratio(int64(pm.DroppedRounds), rounds), "ratio"},
		)
	}
	return append(out,
		metric{"engine.workers", float64(workers), "count"},
		metric{"query.self_s", seconds(self["query"]), "s"},
		metric{"query.evals", float64(tr.counts["query.evals"]), "count"},
		metric{"amplify.s", seconds(tr.amplify), "s"},
		metric{"amplify.iterations", float64(tr.counts["amplify.iterations"]), "count"},
		metric{"amplify.f_calls", float64(tr.counts["amplify.f_calls"]), "count"},
		metric{"core.self_s", seconds(self["core"]), "s"},
		metric{"gc.cycles", float64(tr.gcCycles), "count"},
		metric{"gc.pause_s", seconds(tr.gcPause), "s"},
	)
}
