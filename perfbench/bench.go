package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"qcongest/internal/congest"
)

// instance is one workload built from one seed: the call under test, its
// inputs, and the reference outputs the call is checked against.
type instance interface {
	// setup (re)builds the call's inputs and reports how long the graph
	// and the topology parts took (topology is 0 where the call builds its
	// own).
	setup() (graphT, topoT time.Duration, err error)
	// reference computes the expected outputs and the engine's worker
	// count. It runs once, after setup and outside every timed region.
	reference() error
	// call runs the untraced computation once and checks its outputs.
	call() callResult
	// traced runs the computation rebuilt from public calls, each timed
	// as a span under tr.rec, and records its counts and checks in tr.
	traced(tr *traceResult)
	// replay re-runs, outside the traced total, what the traced run cannot
	// split from the outside (the amplification, the skeleton init's
	// message count), and adds it to tr.
	replay(tr *traceResult)
	// release drops what call or traced kept alive.
	release()
	// size is the vertex count and workers the engine's effective worker
	// count (Network.EffectiveWorkers under the workload's options).
	size() int
	workers() int
}

// callResult is one untraced call. outputs holds the time from the call's
// start to each result it delivered: every APSP row, or the single result
// of the other workloads.
type callResult struct {
	wall        time.Duration
	outputs     []time.Duration
	rounds      int
	checked     int // outputs compared against the reference
	wrong       int // outputs that differed from it
	fingerprint string
	err         error
}

// traceResult is one traced run.
type traceResult struct {
	rec         *recorder
	phases      map[string]*congest.Metrics // engine totals per phase
	counts      map[string]int64            // deterministic per-layer counts
	amplify     time.Duration
	gcCycles    int64
	gcPause     time.Duration
	checked     int
	wrong       int
	fingerprint string // must equal the untraced call's
	err         error
}

func newTraceResult(rec *recorder) traceResult {
	return traceResult{rec: rec, phases: map[string]*congest.Metrics{}, counts: map[string]int64{}}
}

func (tr *traceResult) addPhase(phase string, m congest.Metrics) {
	p := tr.phases[phase]
	if p == nil {
		p = &congest.Metrics{}
		tr.phases[phase] = p
	}
	p.Add(m)
}

// layerFingerprint renders every deterministic per-layer count; it must be
// identical across the traced runs of one seed.
func (tr *traceResult) layerFingerprint() string {
	s := ""
	for _, k := range sortedKeys(tr.counts) {
		s += fmt.Sprintf("%s=%d ", k, tr.counts[k])
	}
	for _, p := range sortedKeys(tr.phases) {
		m := tr.phases[p]
		s += fmt.Sprintf("%s=%d/%d/%d/%d ", p, m.Rounds, m.Messages, m.Bits, m.DroppedRounds)
	}
	_, resets := tr.rec.sum("session.reset")
	return s + fmt.Sprintf("resets=%d", resets)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sample is one untraced call with its allocation figures.
type sample struct {
	callResult
	alloc, mallocs uint64
}

// measured collects everything one benchmark run observed.
type measured struct {
	setups     []time.Duration
	graphT     []time.Duration
	topoT      []time.Duration
	calls      []sample
	heapLive   uint64 // after the last call, with its state still referenced
	traces     []traceResult
	attempted  int
	failed     int
	mismatches []string
}

func (m *measured) fail(format string, args ...any) {
	m.mismatches = append(m.mismatches, fmt.Sprintf(format, args...))
}

// Set-up is repeated for at least setupBudget and minSetups times, and its
// median reported.
const (
	setupBudget = time.Second
	minSetups   = 5
)

// measure runs one workload instance: repeated set-ups, the reference,
// then untraced calls (trace false) or untraced/traced pairs (trace true),
// alternating which of the pair runs first. A further call or pair runs
// only while the mean one so far still fits in budget; the first always
// runs. The live heap is measured once, after the last call: the full
// collection it needs would slow the call after it. Outputs and the
// determinism of every count are checked outside the timed regions.
func measure(inst instance, budget time.Duration, trace bool) (*measured, error) {
	m := &measured{}
	setupStart := time.Now()
	for i := 0; i < minSetups || time.Since(setupStart) < setupBudget; i++ {
		runtime.GC()
		g, t, err := inst.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setups = append(m.setups, g+t)
		m.graphT = append(m.graphT, g)
		m.topoT = append(m.topoT, t)
	}
	if err := inst.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	start := time.Now()
	for i := 0; i == 0 || time.Since(start)*time.Duration(i+1)/time.Duration(i) <= budget; i++ {
		inst.release()
		if trace && i%2 == 1 {
			m.recordTrace(tracedRun(inst))
		}
		m.record(timedCall(inst))
		if trace && i%2 == 0 {
			inst.release()
			m.recordTrace(tracedRun(inst))
		}
	}
	var live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	m.heapLive = live.HeapAlloc
	inst.release()
	m.checkDeterminism()
	return m, nil
}

func timedCall(inst instance) sample {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := inst.call()
	runtime.ReadMemStats(&after)
	return sample{
		callResult: res,
		alloc:      after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
	}
}

func tracedRun(inst instance) traceResult {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := newTraceResult(newRecorder())
	inst.traced(&tr)
	runtime.ReadMemStats(&after)
	tr.gcCycles = int64(after.NumGC - before.NumGC)
	tr.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if tr.err == nil {
		inst.replay(&tr)
	}
	inst.release()
	return tr
}

func (m *measured) record(s sample) {
	if s.err != nil {
		m.attempted++
		m.failed++
		m.fail("call: %v", s.err)
		return
	}
	m.attempted += s.checked
	m.failed += s.wrong
	if s.wrong > 0 {
		m.fail("call: %d of %d outputs differ from the reference", s.wrong, s.checked)
	}
	m.calls = append(m.calls, s)
}

func (m *measured) recordTrace(tr traceResult) {
	if tr.err != nil {
		m.attempted++
		m.failed++
		m.fail("traced: %v", tr.err)
		return
	}
	m.attempted += tr.checked
	m.failed += tr.wrong
	if tr.wrong > 0 {
		m.fail("traced: %d of %d outputs differ from the reference", tr.wrong, tr.checked)
	}
	m.traces = append(m.traces, tr)
}

// checkDeterminism requires every deterministic count to repeat exactly:
// the untraced results across calls, the traced results against them, and
// the per-layer counts across traced runs. A mismatch is a failure.
func (m *measured) checkDeterminism() {
	if len(m.calls) == 0 {
		return
	}
	want := m.calls[0].fingerprint
	for i, s := range m.calls[1:] {
		m.attempted++
		if s.fingerprint != want {
			m.failed++
			m.fail("call %d: result %q, call 0 gave %q", i+1, s.fingerprint, want)
		}
	}
	for i, tr := range m.traces {
		m.attempted++
		if tr.fingerprint != want {
			m.failed++
			m.fail("traced run %d: result %q, untraced gave %q", i, tr.fingerprint, want)
		}
		if i > 0 {
			m.attempted++
			if a, b := tr.layerFingerprint(), m.traces[0].layerFingerprint(); a != b {
				m.failed++
				m.fail("traced run %d: layer counts %q, traced run 0 gave %q", i, a, b)
			}
		}
	}
}
