package congest

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"qcongest/internal/graph"
)

// The engine's central contract: for any fixed input, Run produces
// bit-for-bit identical outputs, round counts and Metrics for every worker
// count, and all of them match the retained reference engine. These tests
// exercise the real multi-worker code paths explicitly (the automatic rule
// would pick one worker on small machines and networks).

var engineWorkerCounts = []int{1, 2, 3, 8}

// bfsSnapshot captures every output of one BFS program.
type bfsSnapshot struct {
	Dist, Parent int
	Children     []int
	Ecc          int
}

func runBFS(t *testing.T, g *graph.Graph, root int, run func(*Network, int) error, m engineConfig) ([]bfsSnapshot, Metrics) {
	t.Helper()
	nw, err := NewNetwork(g, m.program(func(v int) Node { return NewBFSNode(root) }), WithWorkers(m.workers))
	if err != nil {
		t.Fatal(err)
	}
	if err := run(nw, 8*g.N()+16); err != nil {
		t.Fatal(err)
	}
	out := make([]bfsSnapshot, g.N())
	for v := 0; v < g.N(); v++ {
		b := unwrapNode(nw.Node(v)).(*BFSNode)
		out[v] = bfsSnapshot{Dist: b.Dist, Parent: b.Parent, Children: b.Children, Ecc: b.Ecc}
	}
	return out, nw.Metrics()
}

func TestEngineDeterministicBFS(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := graph.RandomConnected(300, 0.02, seed)
		wantOut, wantM := runBFS(t, g, 0, (*Network).RunReference, engineConfig{workers: 1})
		for _, k := range engineWorkerCounts {
			gotOut, gotM := runBFS(t, g, 0, (*Network).Run, engineConfig{workers: k})
			if !reflect.DeepEqual(gotOut, wantOut) {
				t.Errorf("seed %d workers %d: BFS outputs differ from reference", seed, k)
			}
			if gotM != wantM {
				t.Errorf("seed %d workers %d: Metrics = %+v, want %+v", seed, k, gotM, wantM)
			}
		}
	}
}

func TestEngineDeterministicLeaderElection(t *testing.T) {
	g := graph.RandomConnected(257, 0.03, 9) // odd n: uneven shards
	ref, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() })
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunReference(4 * g.N()); err != nil {
		t.Fatal(err)
	}
	for _, k := range engineWorkerCounts {
		nw, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() }, WithWorkers(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.Run(4 * g.N()); err != nil {
			t.Fatal(err)
		}
		if nw.Metrics() != ref.Metrics() {
			t.Errorf("workers %d: Metrics = %+v, want %+v", k, nw.Metrics(), ref.Metrics())
		}
		for v := 0; v < g.N(); v++ {
			if nw.Node(v).(*LeaderElectNode).Leader != ref.Node(v).(*LeaderElectNode).Leader {
				t.Fatalf("workers %d: node %d elected a different leader", k, v)
			}
		}
	}
}

func TestEngineDeterministicClassicalExact(t *testing.T) {
	g := graph.RandomConnected(200, 0.025, 5)
	want, err := ClassicalExactDiameter(g, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if want.Diameter != truth {
		t.Fatalf("diameter = %d, want %d", want.Diameter, truth)
	}
	for _, k := range engineWorkerCounts[1:] {
		got, err := ClassicalExactDiameter(g, WithWorkers(k))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers %d: result %+v, want %+v", k, got, want)
		}
	}
}

func TestEngineDeterministicClassicalApprox(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := graph.RandomConnected(160, 0.04, seed)
		want, err := ClassicalApproxDiameter(g, 0, seed, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range engineWorkerCounts[1:] {
			got, err := ClassicalApproxDiameter(g, 0, seed, WithWorkers(k))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("seed %d workers %d: result %+v, want %+v", seed, k, got, want)
			}
		}
	}
}

// Validation errors must name the same round and edge for every worker
// count: the canonical error is the one at the smallest offending sender.
type duelingHogNode struct {
	threshold int
	tx        RawMessage
}

func (h *duelingHogNode) Send(env *Env, out *Outbox) {
	// From the threshold round on, every node floods oversized messages; the
	// canonical report is always for the smallest sender id.
	if env.Round < h.threshold {
		if len(env.Neighbors) == 0 {
			return
		}
		h.tx.Width = 1
		out.Put(env.Neighbors[0], &h.tx)
		return
	}
	h.tx.Width = 1 << 20
	out.Broadcast(env.Neighbors, &h.tx)
}
func (h *duelingHogNode) Receive(env *Env, inbox []Inbound) {}
func (h *duelingHogNode) Done() bool                        { return false }
func (h *duelingHogNode) ResetNode(int, any)                {}

func TestEngineDeterministicErrors(t *testing.T) {
	g := graph.RandomConnected(64, 0.1, 3)
	run := func(k int) string {
		t.Helper()
		nw, err := NewNetwork(g, func(v int) Node { return &duelingHogNode{threshold: 3} }, WithWorkers(k))
		if err != nil {
			t.Fatal(err)
		}
		err = nw.Run(10)
		if err == nil {
			t.Fatal("bandwidth violation not detected")
		}
		return err.Error()
	}
	refNw, err := NewNetwork(g, func(v int) Node { return &duelingHogNode{threshold: 3} })
	if err != nil {
		t.Fatal(err)
	}
	refErr := refNw.RunReference(10)
	if refErr == nil {
		t.Fatal("reference engine missed the violation")
	}
	for _, k := range engineWorkerCounts {
		if got := run(k); got != refErr.Error() {
			t.Errorf("workers %d: error %q, want %q", k, got, refErr.Error())
		}
	}
}

// The observer must see every delivered message in canonical order
// (ascending sender, emission order within a sender) for every worker count.
func TestEngineObserverOrderDeterministic(t *testing.T) {
	g := graph.RandomConnected(150, 0.04, 7)
	trace := func(k int, run func(*Network, int) error) []string {
		t.Helper()
		var events []string
		obs := func(round, from, to, bits int, wire WireView) {
			if wire.Len() != bits {
				t.Errorf("observer: wire view %d bits, reported %d", wire.Len(), bits)
			}
			// Render the encoded message so the trace compares actual bits.
			var enc []byte
			for i := 0; i < wire.Len(); i++ {
				if wire.Bit(i) {
					enc = append(enc, '1')
				} else {
					enc = append(enc, '0')
				}
			}
			events = append(events, fmt.Sprintf("%d:%d->%d:%d:%s", round, from, to, bits, enc))
		}
		nw, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() }, WithWorkers(k), WithObserver(obs))
		if err != nil {
			t.Fatal(err)
		}
		if err := run(nw, 4*g.N()); err != nil {
			t.Fatal(err)
		}
		return events
	}
	want := trace(1, (*Network).RunReference)
	for _, k := range engineWorkerCounts {
		got := trace(k, (*Network).Run)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: observer trace differs from reference (%d vs %d events)", k, len(got), len(want))
		}
	}
}

func TestEffectiveWorkersClamps(t *testing.T) {
	g := graph.Path(8)
	nw, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() }, WithWorkers(64))
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.EffectiveWorkers(); got != 8 {
		t.Errorf("EffectiveWorkers = %d, want clamp to n = 8", got)
	}
	nw, err = NewNetwork(g, func(v int) Node { return NewLeaderElectNode() })
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.EffectiveWorkers(); got != 1 {
		t.Errorf("EffectiveWorkers = %d, want 1 under the automatic rule on a tiny graph", got)
	}

	// The automatic rule reads GOMAXPROCS and never starts a worker without
	// a frontier shard (shards are aligned to 4096 vertices).
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	auto := func(n int) int {
		topo, err := NewTopology(graph.Path(n))
		if err != nil {
			t.Fatal(err)
		}
		return NewNetworkOn(topo, func(int) Node { return nil }).EffectiveWorkers()
	}
	runtime.GOMAXPROCS(max(prev, 2))
	if got := auto(1024); got != 1 {
		t.Errorf("n=1024: EffectiveWorkers = %d, want 1 (one shard)", got)
	}
	if got := auto(3 * 4096); got < 2 {
		t.Errorf("n=3*4096 with GOMAXPROCS %d: EffectiveWorkers = %d, want >= 2", runtime.GOMAXPROCS(0), got)
	}
	runtime.GOMAXPROCS(1)
	if got := auto(3 * 4096); got != 1 {
		t.Errorf("n=3*4096 with GOMAXPROCS 1: EffectiveWorkers = %d, want 1", got)
	}
	// An explicit count is honoured even where the rule would not start it.
	topo, err := NewTopology(graph.Path(1024))
	if err != nil {
		t.Fatal(err)
	}
	if got := NewNetworkOn(topo, func(int) Node { return nil }, WithWorkers(2)).EffectiveWorkers(); got != 2 {
		t.Errorf("n=1024 WithWorkers(2): EffectiveWorkers = %d, want 2", got)
	}
}

// TestAutoWorkersOwnShards sweeps the automatic rule over sizes and CPU
// counts: it never exceeds the CPUs, and every worker it starts owns a
// non-empty frontier shard.
func TestAutoWorkersOwnShards(t *testing.T) {
	for _, n := range []int{1, 64, 4096, 4097, 8192, 3*4096 + 1, 5 * 4096, 7*4096 - 5, 40 * 4096} {
		for procs := 1; procs <= 9; procs++ {
			k := autoWorkers(n, procs)
			if k < 1 || k > procs {
				t.Errorf("n=%d procs=%d: autoWorkers = %d, want in [1, %d]", n, procs, k, procs)
				continue
			}
			fr := newFrontierState(n, k, nil)
			if lo, hi := fr.shardWords(k - 1); lo >= hi {
				t.Errorf("n=%d procs=%d: worker %d of %d owns no shard", n, procs, k-1, k)
			}
			if units := (n + 4095) / 4096; k > units || (k < 2 && min(procs, units) >= 2) {
				t.Errorf("n=%d procs=%d: autoWorkers = %d, want in [2, %d]", n, procs, k, units)
			}
		}
	}
}
