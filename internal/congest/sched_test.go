package congest

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// The frontier scheduler's contract: for every program in the suite, every
// worker count and fresh-vs-session execution, the frontier engine is
// bit-identical to RunReference — outputs, Metrics, and complete observer
// wire traces. These tests sweep that whole matrix.

// engineConfig is one row of an engine equivalence matrix: a worker count,
// and whether every program runs with its Scheduled contract hidden.
type engineConfig struct {
	name    string
	workers int
	// dense wraps every program in alwaysOn, so the frontier engine
	// executes every vertex every round — the execution RunReference
	// performs, reached through the always-on path of the frontier.
	dense bool
}

// program returns make, wrapped in alwaysOn on a dense row.
func (c engineConfig) program(make func(v int) Node) func(v int) Node {
	if !c.dense {
		return make
	}
	return func(v int) Node { return alwaysOn{make(v)} }
}

// alwaysOn hides a program's Scheduled contract while keeping its optional
// StateSizer and Resettable halves.
type alwaysOn struct{ Node }

func (a alwaysOn) StateBits() int {
	if s, ok := a.Node.(StateSizer); ok {
		return s.StateBits()
	}
	return 0
}

func (a alwaysOn) ResetNode(v int, params any) { a.Node.(Resettable).ResetNode(v, params) }

// unwrapNode returns the program behind an alwaysOn wrapper.
func unwrapNode(nd Node) Node {
	if a, ok := nd.(alwaysOn); ok {
		return a.Node
	}
	return nd
}

// schedMatrix is the contract × workers grid every equivalence assertion
// runs over.
var schedMatrix = []engineConfig{
	{"dense/w1", 1, true},
	{"dense/w2", 2, true},
	{"dense/w8", 8, true},
	{"frontier/w1", 1, false},
	{"frontier/w2", 2, false},
	{"frontier/w8", 8, false},
}

// schedCase is one program workload: a node family over a topology with an
// output fingerprint.
type schedCase struct {
	name        string
	topo        *Topology
	make        func(v int) Node
	maxRounds   int
	fingerprint func(at func(v int) Node, n int) string
}

// schedCapture is everything one run produces.
type schedCapture struct {
	Out     string
	Metrics Metrics
	Trace   []string
}

func runSchedCase(t *testing.T, c schedCase, run func(*Network, int) error, m engineConfig) schedCapture {
	t.Helper()
	var trace []string
	nw := NewNetworkOn(c.topo, m.program(c.make), WithObserver(recordObs(&trace)), WithWorkers(m.workers))
	if err := run(nw, c.maxRounds); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	at := func(v int) Node { return unwrapNode(nw.Node(v)) }
	return schedCapture{Out: c.fingerprint(at, c.topo.N()), Metrics: nw.Metrics(), Trace: trace}
}

// TestSchedulerEquivalenceSuite sweeps every node program of the suite over
// the contract × workers matrix, fresh and session-reused, against a
// RunReference baseline.
func TestSchedulerEquivalenceSuite(t *testing.T) {
	g := graph.RandomConnected(150, 0.03, 4)
	n := g.N()
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{WithWorkers(1)}
	info, _, err := PreprocessOn(topo, base...)
	if err != nil {
		t.Fatal(err)
	}
	d := info.D

	// Scaffolding inputs computed once on the serial engine.
	tourLen := 2 * (n - 1)
	tau, _, err := TokenWalkOn(topo, info, info.Children, info.Leader, tourLen, base...)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]int, n)
	sources := 0
	for v := 0; v < n; v++ {
		ranks[v] = -1
		if v%19 == 0 {
			ranks[v] = sources
			sources++
		}
	}
	sspDuration := sources + 2*d + 8
	sspNW := NewNetworkOn(topo, func(v int) Node { return NewSSPNode(ranks[v], sources, sspDuration) }, base...)
	if err := sspNW.Run(sspDuration + 4); err != nil {
		t.Fatal(err)
	}
	dists := make([]map[int]int, n)
	for v := 0; v < n; v++ {
		dists[v] = sspNW.Node(v).(*SSPNode).Dist
	}

	gw := graph.WithWeights(g, 7, 4)
	wtopo, err := NewTopology(gw)
	if err != nil {
		t.Fatal(err)
	}
	bound := wtopo.DistBound()
	wDuration := n - 1

	cases := []schedCase{
		{
			name: "leader", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node { return NewLeaderElectNode() },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*LeaderElectNode).Leader)
				}
				return sb.String()
			},
		},
		{
			name: "bfs", topo: topo, maxRounds: 8*n + 16,
			make: func(v int) Node { return NewBFSNode(info.Leader) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					b := at(v).(*BFSNode)
					fmt.Fprintf(&sb, "%d/%d/%v/%d;", b.Dist, b.Parent, b.Children, b.Ecc)
				}
				return sb.String()
			},
		},
		{
			name: "walk", topo: topo, maxRounds: tourLen + 4,
			make: func(v int) Node {
				return NewTokenWalkNode(info.Parent[v], info.Children[v], info.Leader, info.Leader, tourLen)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*TokenWalkNode).Tau)
				}
				return sb.String()
			},
		},
		{
			name: "wave", topo: topo, maxRounds: 2*tourLen + 2*d + 8,
			make: func(v int) Node { return NewWaveNode(tau[v] >= 0, tau[v], 2*tourLen+2*d+2) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					w := at(v).(*WaveNode)
					fmt.Fprintf(&sb, "%d/%d/%v;", w.TV, w.DV, w.Violation)
				}
				return sb.String()
			},
		},
		{
			name: "cc-max", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node {
				return NewConvergecastMaxNode(info.Parent[v], info.Children[v], (v*13)%97, v)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					c := at(v).(*ConvergecastMaxNode)
					fmt.Fprintf(&sb, "%d/%d;", c.Max, c.MaxWitness)
				}
				return sb.String()
			},
		},
		{
			name: "bcast", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node { return NewBroadcastNode(info.Parent[v], info.Children[v], 42) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*BroadcastNode).Value)
				}
				return sb.String()
			},
		},
		{
			name: "minflood", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node { return NewMinFloodNode(v%17 == 0) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					m := at(v).(*MinFloodNode)
					fmt.Fprintf(&sb, "%d/%d;", m.Dist, m.Src)
				}
				return sb.String()
			},
		},
		{
			name: "cc-sum", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node {
				return NewConvergecastSumNode(info.Parent[v], info.Children[v], v%5)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*ConvergecastSumNode).Sum)
				}
				return sb.String()
			},
		},
		{
			name: "ssp", topo: topo, maxRounds: sspDuration + 4,
			make: func(v int) Node { return NewSSPNode(ranks[v], sources, sspDuration) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					s := at(v).(*SSPNode)
					for r := 0; r < sources; r++ {
						d, ok := s.Dist[r]
						fmt.Fprintf(&sb, "%d/%v,", d, ok)
					}
					sb.WriteByte(';')
				}
				return sb.String()
			},
		},
		{
			name: "src-max", topo: topo, maxRounds: d + sources + 8,
			make: func(v int) Node {
				return NewSourceMaxNode(info.Parent[v], info.Children[v], info.Depth[v], d, sources, dists[v])
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					s := at(v).(*SourceMaxNode)
					for r := 0; r < sources; r++ {
						fmt.Fprintf(&sb, "%d,", s.Max[r])
					}
					sb.WriteByte(';')
				}
				return sb.String()
			},
		},
		{
			name: "weighted-sssp", topo: wtopo, maxRounds: wDuration + 4,
			make: func(v int) Node {
				return NewWeightedSSSPNode(v == 3, wtopo.NeighborWeights(v), bound, wDuration)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*WeightedSSSPNode).Dist)
				}
				return sb.String()
			},
		},
		{
			name: "weighted-max", topo: wtopo, maxRounds: 4*n + 16,
			make: func(v int) Node {
				return NewWeightedMaxNode(info.Parent[v], info.Children[v], (v*7)%bound, v, bound)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					c := at(v).(*WeightedMaxNode)
					fmt.Fprintf(&sb, "%d/%d;", c.Max, c.MaxWitness)
				}
				return sb.String()
			},
		},
		{
			name: "notify", topo: topo, maxRounds: 8,
			make: func(v int) Node { return &notifyNode{Parent: info.Parent[v], Marked: v%3 == 0} },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					ch := append([]int(nil), at(v).(*notifyNode).MarkedChildren...)
					sort.Ints(ch)
					fmt.Fprintf(&sb, "%v;", ch)
				}
				return sb.String()
			},
		},
	}

	for _, c := range cases {
		want := runSchedCase(t, c, (*Network).RunReference, engineConfig{workers: 1})
		for _, m := range schedMatrix {
			got := runSchedCase(t, c, (*Network).Run, m)
			if got.Out != want.Out {
				t.Errorf("%s [%s]: outputs differ from RunReference", c.name, m.name)
			}
			if got.Metrics != want.Metrics {
				t.Errorf("%s [%s]: Metrics = %+v, want %+v", c.name, m.name, got.Metrics, want.Metrics)
			}
			if !reflect.DeepEqual(got.Trace, want.Trace) {
				t.Errorf("%s [%s]: observer trace differs from RunReference (%d vs %d events)",
					c.name, m.name, len(got.Trace), len(want.Trace))
			}

			// Session dimension: build once, Reset+Run twice; both
			// executions must match the reference bit for bit.
			var trace []string
			sess := NewSession(c.topo, m.program(c.make), WithObserver(recordObs(&trace)), WithWorkers(m.workers))
			at := func(v int) Node { return unwrapNode(sess.Node(v)) }
			for rerun := 0; rerun < 2; rerun++ {
				trace = trace[:0]
				if err := sess.Reset(nil); err != nil {
					t.Fatalf("%s [%s]: %v", c.name, m.name, err)
				}
				if err := sess.Run(c.maxRounds); err != nil {
					t.Fatalf("%s [%s] rerun %d: %v", c.name, m.name, rerun, err)
				}
				if out := c.fingerprint(at, c.topo.N()); out != want.Out {
					t.Errorf("%s [%s] session rerun %d: outputs differ from RunReference", c.name, m.name, rerun)
				}
				if sess.Metrics() != want.Metrics {
					t.Errorf("%s [%s] session rerun %d: Metrics = %+v, want %+v",
						c.name, m.name, rerun, sess.Metrics(), want.Metrics)
				}
				if !reflect.DeepEqual(trace, want.Trace) {
					t.Errorf("%s [%s] session rerun %d: observer trace differs", c.name, m.name, rerun)
				}
			}
			sess.Close()
		}
	}
}

// TestSchedulerEquivalenceComposites runs the composed classical algorithms
// — every phase of the Figure 2 / Figure 3 pipelines back to back — over
// the worker counts, and checks each result against the sequential graph
// oracles. The composites build their networks internally, so the baseline
// is the serial engine; the Suite above holds every phase program to
// RunReference individually.
func TestSchedulerEquivalenceComposites(t *testing.T) {
	g := graph.RandomConnected(120, 0.04, 8)
	gw := graph.WithWeights(g, 6, 8)
	diam, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	wdiam, err := gw.WeightedDiameter()
	if err != nil {
		t.Fatal(err)
	}
	eccs := make([]int, g.N())
	for v := range eccs {
		if eccs[v], err = g.Eccentricity(v); err != nil {
			t.Fatal(err)
		}
	}
	type comp struct {
		name string
		run  func(opts ...Option) (string, error)
		want string // the result's oracle-checked part
	}
	comps := []comp{
		{"classical-exact", func(opts ...Option) (string, error) {
			r, err := ClassicalExactDiameter(g, opts...)
			return fmt.Sprintf("%d %+v", r.Diameter, r.Metrics), err
		}, fmt.Sprintf("%d ", diam)},
		{"classical-approx", func(opts ...Option) (string, error) {
			r, err := ClassicalApproxDiameter(g, 0, 8, opts...)
			if err == nil && (r.Diameter < 2*diam/3 || r.Diameter > diam) {
				err = fmt.Errorf("estimate %d outside [2D/3, D] for D = %d", r.Diameter, diam)
			}
			return fmt.Sprintf("%+v", r), err
		}, ""},
		{"classical-ecc", func(opts ...Option) (string, error) {
			ecc, m, err := ClassicalEccentricities(g, opts...)
			return fmt.Sprintf("%v %+v", ecc, m), err
		}, fmt.Sprintf("%v ", eccs)},
		{"classical-weighted", func(opts ...Option) (string, error) {
			r, err := ClassicalWeightedDiameter(gw, opts...)
			return fmt.Sprintf("%d %+v", r.Diameter, r.Metrics), err
		}, fmt.Sprintf("%d ", wdiam)},
	}
	for _, c := range comps {
		want, err := c.run(WithWorkers(1), WithStrictAccounting())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.HasPrefix(want, c.want) {
			t.Errorf("%s: serial result %s, oracle says %s", c.name, want, c.want)
		}
		for _, workers := range []int{2, 8} {
			got, err := c.run(WithWorkers(workers), WithStrictAccounting())
			if err != nil {
				t.Fatalf("%s [w%d]: %v", c.name, workers, err)
			}
			if got != want {
				t.Errorf("%s [w%d]:\n got %s\nwant %s", c.name, workers, got, want)
			}
		}
	}
}

// pulseNode is a Scheduled test program with long idle gaps: vertex 0
// broadcasts at the configured rounds; everyone finishes at the last one.
// It exercises the scheduler's idle-round skipping.
type pulseNode struct {
	wakes []int // ascending broadcast rounds of vertex 0
	idx   int
	seen  int
	done  bool
	tx    msgChild
}

func (p *pulseNode) last() int { return p.wakes[len(p.wakes)-1] }

func (p *pulseNode) Send(env *Env, out *Outbox) {
	if env.ID != 0 {
		return
	}
	if p.idx < len(p.wakes) && env.Round == p.wakes[p.idx] {
		p.idx++
		out.Broadcast(env.Neighbors, &p.tx)
	}
}

func (p *pulseNode) Receive(env *Env, inbox []Inbound) {
	p.seen += len(inbox)
	if env.Round >= p.last() {
		p.done = true
	}
}

func (p *pulseNode) Done() bool { return p.done }

func (p *pulseNode) StateBits() int { return 64 + p.seen }

func (p *pulseNode) NextWake(env *Env, round int) int {
	if p.done {
		return NeverWake
	}
	if env.ID == 0 && p.idx < len(p.wakes) {
		if w := p.wakes[p.idx]; w > round {
			return w
		}
		return round + 1
	}
	if w := p.last(); w > round {
		return w
	}
	return round + 1
}

func (p *pulseNode) ResetNode(v int, params any) {
	if params != nil {
		badResetParams("pulseNode", params)
	}
	p.idx, p.seen, p.done = 0, 0, false
}

// TestDroppedRoundsSchedulerInvariant is the Metrics.DroppedRounds table
// test: an all-idle round that the frontier scheduler skips must account
// identically to the empty round RunReference executes — same Rounds, same
// DroppedRounds, same everything — including on timeout errors inside a
// gap.
func TestDroppedRoundsSchedulerInvariant(t *testing.T) {
	g := graph.Path(40)
	cases := []struct {
		name          string
		wakes         []int
		maxRounds     int
		wantErr       bool
		wantRounds    int
		wantDropped   int
		wantSkipped   bool // documents which rows exercise real gaps
		wantDelivered int  // messages: one broadcast from vertex 0 per pulse
	}{
		{"no-gap", []int{1, 2, 3}, 50, false, 3, 0, false, 3},
		{"single-late-pulse", []int{5}, 50, false, 5, 4, true, 1},
		{"two-pulses-long-gap", []int{1, 40}, 80, false, 40, 38, true, 2},
		{"gap-to-timeout", []int{50}, 10, true, 10, 10, true, 0},
	}
	for _, tc := range cases {
		runM := func(run func(*Network, int) error, workers int) (Metrics, error) {
			nw, err := NewNetwork(g, func(v int) Node { return &pulseNode{wakes: tc.wakes} }, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			runErr := run(nw, tc.maxRounds)
			return nw.Metrics(), runErr
		}
		wantM, wantErr := runM((*Network).RunReference, 1)
		if (wantErr != nil) != tc.wantErr {
			t.Fatalf("%s: reference err = %v, want error %v", tc.name, wantErr, tc.wantErr)
		}
		if wantM.Rounds != tc.wantRounds || wantM.DroppedRounds != tc.wantDropped {
			t.Fatalf("%s: reference Rounds/Dropped = %d/%d, want %d/%d",
				tc.name, wantM.Rounds, wantM.DroppedRounds, tc.wantRounds, tc.wantDropped)
		}
		if want := tc.wantDelivered * len(g.Neighbors(0)); wantM.Messages != want {
			t.Fatalf("%s: reference Messages = %d, want %d", tc.name, wantM.Messages, want)
		}
		for _, workers := range []int{1, 2, 8} {
			gotM, gotErr := runM((*Network).Run, workers)
			if (gotErr == nil) != (wantErr == nil) ||
				(gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Errorf("%s workers %d: frontier err %v, reference err %v", tc.name, workers, gotErr, wantErr)
			}
			if gotM != wantM {
				t.Errorf("%s workers %d: frontier Metrics = %+v, reference %+v", tc.name, workers, gotM, wantM)
			}
		}
	}
}

// TestContractlessNetworkMatchesReference: a network whose programs all
// lack the Scheduled contract runs on the frontier engine with every vertex
// always on, and must match RunReference — errors, Metrics — for every
// worker count and across a Session re-run. duelingHogNode covers both a
// bandwidth failure and a timeout, where the error texts must agree byte
// for byte.
func TestContractlessNetworkMatchesReference(t *testing.T) {
	topo, err := NewTopology(graph.RandomConnected(64, 0.1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []int{4, 1 << 30} {
		make := func(v int) Node { return &duelingHogNode{threshold: threshold} }
		ref := NewNetworkOn(topo, make)
		wantErr := ref.RunReference(12)
		if wantErr == nil {
			t.Fatalf("threshold %d: reference run did not fail", threshold)
		}
		wantM := ref.Metrics()
		check := func(what string, m Metrics, err error) {
			t.Helper()
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("threshold %d %s: err %v, reference %v", threshold, what, err, wantErr)
			}
			if m != wantM {
				t.Errorf("threshold %d %s: Metrics = %+v, reference %+v", threshold, what, m, wantM)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			nw := NewNetworkOn(topo, make, WithWorkers(workers))
			err := nw.Run(12)
			check(fmt.Sprintf("w%d", workers), nw.Metrics(), err)

			sess := NewSession(topo, make, WithWorkers(workers))
			for rerun := 0; rerun < 2; rerun++ {
				if err := sess.Reset(nil); err != nil {
					t.Fatal(err)
				}
				err := sess.Run(12)
				check(fmt.Sprintf("w%d session rerun %d", workers, rerun), sess.Metrics(), err)
			}
			sess.Close()
		}
	}
}
