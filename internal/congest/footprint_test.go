package congest

// Tests for the engine's per-vertex footprint: the BFS convergecast's
// report count and running maximum, the BFS child lists carved from the
// worker's int slab, the slab-built preprocessing programs, the one Env
// per worker that the engine refills for every program call, and the
// per-sender bandwidth ledger indexed by port (position in the sender's
// neighbor row) and sized to the maximum degree. None of them may show in
// the results: outputs, Metrics and error texts stay identical to
// RunReference, which keeps its own per-vertex Envs.

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"qcongest/internal/graph"
)

// footprintMatrix is the contract × workers grid of the footprint tests
// (see engineConfig; the dense rows run every program always on).
var footprintMatrix = []engineConfig{
	{"dense/w1", 1, true},
	{"dense/w2", 2, true},
	{"dense/w3", 3, true},
	{"frontier/w1", 1, false},
	{"frontier/w2", 2, false},
	{"frontier/w3", 3, false},
}

// bfsStateBitsBound is the MaxStateBits a finished BFS run must report:
// the final state is the largest, and at the vertex with the most children
// it is 3 words of core state, one flag bit per child and one word per
// child report.
func bfsStateBitsBound(snap []bfsSnapshot) int {
	most := 0
	for _, s := range snap {
		most = max(most, len(s.Children))
	}
	return 3*64 + most + most*64
}

// TestBFSConvergecastIdentity runs the BFS convergecast on a grid, a path,
// a random graph and a star whose hub has degree 1200 (every leaf reports
// to it), over the contract × workers matrix and as a re-rooted Session,
// and compares every output and the full Metrics with RunReference. The
// star pins the report counter at a high fan-in, and MaxStateBits is
// checked against the state formula independently of either engine.
func TestBFSConvergecastIdentity(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		root int
	}{
		{"grid", graph.Grid(30, 40), 17},
		{"path", graph.Path(300), 120},
		{"random", graph.RandomConnected(400, 0.02, 5), 0},
		{"star", graph.Star(1201), 1}, // root at a leaf: the hub relays 1199 reports
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, wantM := runBFS(t, c.g, c.root, (*Network).RunReference, engineConfig{workers: 1})
			if ecc, err := c.g.Eccentricity(c.root); err != nil || want[c.root].Ecc != ecc {
				t.Fatalf("reference ecc(root) = %d, want %d (%v)", want[c.root].Ecc, ecc, err)
			}
			if b := bfsStateBitsBound(want); wantM.MaxStateBits != b {
				t.Errorf("reference MaxStateBits = %d, want %d", wantM.MaxStateBits, b)
			}
			for _, m := range footprintMatrix {
				got, gotM := runBFS(t, c.g, c.root, (*Network).Run, m)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: BFS outputs differ from RunReference", m.name)
				}
				if gotM != wantM {
					t.Errorf("%s: Metrics = %+v, want %+v", m.name, gotM, wantM)
				}
			}
		})
	}

	t.Run("session-reroot", func(t *testing.T) {
		g := graph.Star(1201)
		topo, err := NewTopology(g)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(topo, func(int) Node { return NewBFSNode(0) }, WithWorkers(2))
		defer sess.Close()
		for _, root := range []int{0, 700} {
			if err := sess.Reset(BFSRoot{Root: root}); err != nil {
				t.Fatal(err)
			}
			if err := sess.Run(8*g.N() + 16); err != nil {
				t.Fatal(err)
			}
			want, wantM := runBFS(t, g, root, (*Network).RunReference, engineConfig{workers: 1})
			for v := range want {
				b := sess.Node(v).(*BFSNode)
				if got := (bfsSnapshot{b.Dist, b.Parent, b.Children, b.Ecc}); !reflect.DeepEqual(got, want[v]) {
					t.Fatalf("root %d vertex %d: session output %+v, want %+v", root, v, got, want[v])
				}
			}
			if m := sess.Metrics(); m != wantM {
				t.Errorf("root %d: session Metrics = %+v, want %+v", root, m, wantM)
			}
		}
	})

	t.Run("footprint", func(t *testing.T) {
		topo, err := NewTopology(graph.Grid(128, 128))
		if err != nil {
			t.Fatal(err)
		}
		bytesAt := map[int]float64{}
		for _, k := range []int{1, 3} {
			mallocs, bytes := bfsFootprint(t, topo, (*Network).Run, k)
			t.Logf("w%d: %.3f mallocs, %.1f bytes per vertex", k, mallocs, bytes)
			if mallocs > maxMallocsPerVertex {
				t.Errorf("w%d: %.3f mallocs per vertex, want <= %v", k, mallocs, maxMallocsPerVertex)
			}
			bytesAt[k] = bytes
		}
		if bytesAt[1] > maxBytesPerVertex {
			t.Errorf("w1: %.1f bytes per vertex, want <= %d", bytesAt[1], maxBytesPerVertex)
		}
		if per := (bytesAt[3] - bytesAt[1]) / 2; per > maxBytesPerExtraWorker {
			t.Errorf("each extra worker costs %.1f bytes per vertex, want <= %d", per, maxBytesPerExtraWorker)
		}
	})
}

// Per-vertex bounds of a single-shot NewNetworkOn+Run of the BFS on the
// 128×128 grid. It allocates one object per vertex, the caller's program;
// the engine and the Children lists allocate O(n/4096) times (the lists
// are carved from the worker's int slab). Bytes per vertex were measured
// at 164.3 with one worker: the program 112, nodes 16, dest 16, wake 8,
// children 8, done 1. Each extra worker adds only its 16-byte delivery-
// chain head per vertex. A Children append per vertex breaks the malloc
// bound; a per-vertex interface table (16 bytes each) or a table of n
// Envs (120 bytes per vertex) breaks the byte bound; an n-sized edge
// ledger per worker (16 more bytes per vertex per worker) breaks the
// per-worker bound. The bounds may tighten, never loosen.
const (
	maxMallocsPerVertex    = 1.1
	maxBytesPerVertex      = 180
	maxBytesPerExtraWorker = 24
)

// allocsPerVertex returns the mallocs and bytes f allocates, per vertex of
// an n-vertex network.
func allocsPerVertex(n int, f func()) (mallocs, bytes float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// bfsFootprint measures a single-shot BFS from vertex 0 on topo at k
// workers, the network's construction included.
func bfsFootprint(t *testing.T, topo *Topology, exec func(*Network, int) error, k int) (mallocs, bytes float64) {
	t.Helper()
	return allocsPerVertex(topo.N(), func() {
		nw := NewNetworkOn(topo, func(int) Node { return NewBFSNode(0) }, WithWorkers(k))
		if err := exec(nw, 8*topo.N()+16); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPreprocessFootprint pins the preprocessing's allocations: leader
// election, BFS and broadcast place their programs in one slab per phase,
// and the BFS child lists come from the engine's int slab, so PreprocessOn
// allocates O(n/4096) times, not once per vertex (it made four per vertex
// when each phase built its programs one by one).
func TestPreprocessFootprint(t *testing.T) {
	const maxMallocsPerVertex = 0.05
	topo, err := NewTopology(graph.Grid(128, 128))
	if err != nil {
		t.Fatal(err)
	}
	mallocs, bytes := allocsPerVertex(topo.N(), func() {
		if _, _, err := PreprocessOn(topo); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.3f mallocs, %.1f bytes per vertex", mallocs, bytes)
	if mallocs > maxMallocsPerVertex {
		t.Errorf("%.3f mallocs per vertex, want <= %v", mallocs, maxMallocsPerVertex)
	}
}

// TestChildSlabIsolation checks that carving the BFS child lists from the
// engine's int slab never shares memory between lists: a re-rooted
// Session leaves the lists of its previous run intact (they may have
// escaped into a PreInfo), an append past a carved list reallocates
// instead of writing into the next vertex's list, and RunReference, whose
// Envs carry no slab, allocates exact lists rather than a chunk per
// vertex.
func TestChildSlabIsolation(t *testing.T) {
	topo, err := NewTopology(graph.Grid(128, 128))
	if err != nil {
		t.Fatal(err)
	}
	n := topo.N()
	children := func(node func(v int) Node) [][]int {
		out := make([][]int, n)
		for v := range out {
			out[v] = node(v).(*BFSNode).Children
		}
		return out
	}

	t.Run("session-reroot", func(t *testing.T) {
		for _, k := range []int{1, 2} {
			sess := NewSession(topo, func(int) Node { return NewBFSNode(0) }, WithWorkers(k))
			if err := sess.Run(8*n + 16); err != nil {
				t.Fatal(err)
			}
			kept := children(sess.Node)
			want := copyRows(kept)
			if err := sess.Reset(BFSRoot{Root: 5}); err != nil {
				t.Fatal(err)
			}
			if err := sess.Run(8*n + 16); err != nil {
				t.Fatal(err)
			}
			sess.Close()
			if !reflect.DeepEqual(kept, want) {
				t.Errorf("w%d: the re-rooted run changed the child lists of the first run", k)
			}
			if reflect.DeepEqual(children(sess.Node), want) {
				t.Errorf("w%d: the re-rooted run produced the first run's tree", k)
			}
		}
	})

	t.Run("append-reallocates", func(t *testing.T) {
		nw := NewNetworkOn(topo, func(int) Node { return NewBFSNode(0) }, WithWorkers(2))
		if err := nw.Run(8*n + 16); err != nil {
			t.Fatal(err)
		}
		rows := children(nw.Node)
		want := copyRows(rows)
		for v, r := range rows {
			if len(r) != cap(r) {
				t.Fatalf("vertex %d: child list len %d, cap %d; want len == cap", v, len(r), cap(r))
			}
			if len(r) > 0 {
				if grown := append(r, -1); &grown[0] == &r[0] {
					t.Fatalf("vertex %d: append past the carved list did not reallocate", v)
				}
			}
		}
		if !reflect.DeepEqual(rows, want) {
			t.Error("appending to one child list changed another")
		}
	})

	t.Run("reference", func(t *testing.T) {
		// RunReference keeps one Env per vertex on top of Run's footprint;
		// a slab chunk per vertex would cost 32 KB each.
		bound := maxBytesPerVertex + float64(unsafe.Sizeof(Env{}))
		_, bytes := bfsFootprint(t, topo, (*Network).RunReference, 1)
		t.Logf("RunReference: %.1f bytes per vertex", bytes)
		if bytes > bound {
			t.Errorf("RunReference: %.1f bytes per vertex, want <= %.0f (Run's bound plus one Env)", bytes, bound)
		}
	})
}

// envProbe checks the Env of every call it receives against its own
// vertex: id, n, the identity of its neighbor row, and the round. Eager
// probes (even ids) wake every round up to last and broadcast the round
// they see; the others are message-driven, so on the frontier path they
// run as receive-only vertices. Every delivered payload must equal the
// receiver's Round, which ties the Send-side and Receive-side Envs of
// different vertices (and workers) to one round counter.
type envProbe struct {
	id    int
	row   []int // the topology's neighbor row of id
	n     int
	eager bool
	last  int

	sends     int // Send calls so far; an eager probe's k-th Send is round k
	lastRecv  int // Round of the previous Receive
	done      bool
	violation string

	tx, rx msgActivate
}

func (p *envProbe) check(call string, env *Env) {
	if p.violation != "" {
		return
	}
	switch {
	case env.ID != p.id:
		p.violation = fmt.Sprintf("%s: env.ID = %d", call, env.ID)
	case env.N != p.n:
		p.violation = fmt.Sprintf("%s: env.N = %d", call, env.N)
	case len(env.Neighbors) != len(p.row) || &env.Neighbors[0] != &p.row[0]:
		p.violation = fmt.Sprintf("%s: env.Neighbors is not the vertex's row (len %d, want %d)", call, len(env.Neighbors), len(p.row))
	}
}

func (p *envProbe) Send(env *Env, out *Outbox) {
	p.check("Send", env)
	p.sends++
	if !p.eager {
		return
	}
	if env.Round != p.sends && p.violation == "" {
		p.violation = fmt.Sprintf("Send #%d: env.Round = %d", p.sends, env.Round)
	}
	if env.Round <= p.last {
		p.tx.Dist = env.Round
		out.Broadcast(env.Neighbors, &p.tx)
	}
}

func (p *envProbe) Receive(env *Env, inbox []Inbound) {
	p.check("Receive", env)
	if env.Round <= p.lastRecv && p.violation == "" {
		p.violation = fmt.Sprintf("Receive: env.Round = %d after %d", env.Round, p.lastRecv)
	}
	p.lastRecv = env.Round
	for i := range inbox {
		if err := inbox[i].Decode(env, &p.rx); err != nil || p.rx.Dist != env.Round {
			if p.violation == "" {
				p.violation = fmt.Sprintf("Receive: payload round %d in env.Round %d (%v)", p.rx.Dist, env.Round, err)
			}
		}
	}
	if p.eager && env.Round >= p.last {
		p.done = true
	}
}

func (p *envProbe) Done() bool { return p.done || !p.eager }

func (p *envProbe) NextWake(env *Env, round int) int {
	p.check("NextWake", env)
	if env.Round != round && p.violation == "" {
		p.violation = fmt.Sprintf("NextWake(%d): env.Round = %d", round, env.Round)
	}
	if p.eager && !p.done {
		return round + 1
	}
	return NeverWake
}

// TestEnvPerCallContract checks, on a graph spanning three frontier
// shards, that every Send, Receive and NextWake call sees the Env of its
// own vertex and the current round, for every worker count, with the
// probes scheduled and always on. Run under -race it also proves the
// per-worker Envs (and their decode scratch) are never shared between
// workers.
func TestEnvPerCallContract(t *testing.T) {
	const side, last = 110, 5 // 12100 vertices: three 64-word shards at w3
	topo, err := NewTopology(graph.Grid(side, side))
	if err != nil {
		t.Fatal(err)
	}
	n := topo.N()
	if lo, hi := newFrontierState(n, 3, nil).shardWords(2); lo >= hi {
		t.Fatal("the grid no longer spans three frontier shards")
	}
	for _, m := range footprintMatrix {
		t.Run(m.name, func(t *testing.T) {
			nw := NewNetworkOn(topo, m.program(func(v int) Node {
				return &envProbe{id: v, row: topo.Neighbors(v), n: n, eager: v%2 == 0, last: last}
			}), WithWorkers(m.workers))
			if err := nw.Run(last + 4); err != nil {
				t.Fatal(err)
			}
			if r := nw.Metrics().Rounds; r != last {
				t.Errorf("Rounds = %d, want %d", r, last)
			}
			var bad []string
			for v := 0; v < n; v++ {
				p := unwrapNode(nw.Node(v)).(*envProbe)
				if p.violation != "" {
					bad = append(bad, fmt.Sprintf("vertex %d: %s", v, p.violation))
				}
				if p.eager && p.sends != last {
					bad = append(bad, fmt.Sprintf("vertex %d: %d Sends, want %d", v, p.sends, last))
				}
				if p.lastRecv != last {
					bad = append(bad, fmt.Sprintf("vertex %d: last Receive in round %d, want %d", v, p.lastRecv, last))
				}
			}
			if len(bad) > 0 {
				t.Errorf("%d Env contract violations, first: %s", len(bad), strings.Join(bad[:min(3, len(bad))], "; "))
			}
		})
	}
}

// TestPortLedger pins the port-indexed bandwidth ledger: Put (port found
// by binary search) and Broadcast (port = position in the row) charge the
// same cell, overflow reports the same error text as before the ledger was
// port-indexed, a non-neighbor is still rejected, and a high-degree hub
// fits a ledger sized once to the maximum degree with no steady-state
// allocation.
func TestPortLedger(t *testing.T) {
	const width = 10
	msgBits := KindBits + width

	t.Run("put+broadcast share a cell", func(t *testing.T) {
		topo, err := NewTopology(graph.Grid(6, 6))
		if err != nil {
			t.Fatal(err)
		}
		const sender = 14 // interior vertex: four neighbors
		row := topo.Neighbors(sender)
		port := 2
		to := row[port]
		for _, putFirst := range []bool{true, false} {
			stage := func(bw int) *Outbox {
				nw := NewNetworkOn(topo, func(int) Node { return &neverDone{} }, WithBandwidth(bw))
				ob := newOutbox(nw, topo.N())
				ob.beginRound(1)
				ob.begin(sender)
				tx := &RawMessage{Width: width}
				if putFirst {
					ob.Put(to, tx)
					ob.Broadcast(row, tx)
				} else {
					ob.Broadcast(row, tx)
					ob.Put(to, tx)
				}
				return ob
			}
			ob := stage(2 * msgBits)
			if ob.err != nil {
				t.Fatalf("putFirst=%v: %v", putFirst, ob.err)
			}
			if c := ob.edge[port]; c.stamp != ob.edgeSerial || int(c.bits) != 2*msgBits {
				t.Errorf("putFirst=%v: ledger cell for port %d = %+v, want %d bits this sender", putFirst, port, c, 2*msgBits)
			}
			if ob.maxEdge != 2*msgBits || ob.sent() != len(row)+1 {
				t.Errorf("putFirst=%v: maxEdge %d, %d copies; want %d, %d", putFirst, ob.maxEdge, ob.sent(), 2*msgBits, len(row)+1)
			}

			ob = stage(2*msgBits - 1)
			want := fmt.Sprintf("congest: round 1: edge %d->%d exceeds bandwidth (%d > %d bits)", sender, to, 2*msgBits, 2*msgBits-1)
			if ob.err == nil || ob.err.Error() != want {
				t.Errorf("putFirst=%v: overflow error %v, want %q", putFirst, ob.err, want)
			}
		}
	})

	t.Run("non-neighbor", func(t *testing.T) {
		topo, err := NewTopology(graph.Grid(6, 6))
		if err != nil {
			t.Fatal(err)
		}
		nw := NewNetworkOn(topo, func(int) Node { return &neverDone{} })
		ob := newOutbox(nw, topo.N())
		ob.beginRound(3)
		ob.begin(14)
		ob.Put(35, &RawMessage{Width: width})
		if want := "congest: round 3: node 14 sent to non-neighbor 35"; ob.err == nil || ob.err.Error() != want {
			t.Errorf("Put to a non-neighbor: error %v, want %q", ob.err, want)
		}
		if !topo.HasEdge(14, 15) || topo.HasEdge(14, 35) || topo.HasEdge(-1, 0) || topo.HasEdge(36, 0) {
			t.Error("HasEdge disagrees with the grid")
		}
	})

	t.Run("hub", func(t *testing.T) {
		// A broom: hub 0 with 200 leaves, and a 100-vertex handle hanging
		// off leaf 200, so the maximum degree (200) is well below n.
		const leaves, n = 200, 301
		g := graph.New(n)
		for v := 1; v <= leaves; v++ {
			g.MustAddEdge(0, v)
		}
		for v := leaves; v+1 < n; v++ {
			g.MustAddEdge(v, v+1)
		}
		topo, err := NewTopology(g)
		if err != nil {
			t.Fatal(err)
		}
		nw := NewNetworkOn(topo, func(int) Node { return &neverDone{} })
		ob := newOutbox(nw, n)
		if len(ob.edge) != leaves {
			t.Fatalf("ledger has %d cells, want the maximum degree %d", len(ob.edge), leaves)
		}
		ledger := &ob.edge[0]
		tx := &RawMessage{Width: width}
		round := 0
		stageRound := func() {
			round++
			ob.beginRound(round)
			for v := 0; v < n; v++ {
				ob.begin(v)
				ob.Broadcast(topo.Neighbors(v), tx)
			}
		}
		stageRound() // warm the arena and queue
		if allocs := testing.AllocsPerRun(10, stageRound); allocs != 0 {
			t.Errorf("steady-state hub round: %v allocs, want 0", allocs)
		}
		if ob.err != nil {
			t.Fatal(ob.err)
		}
		if &ob.edge[0] != ledger || len(ob.edge) != leaves {
			t.Error("the ledger was reallocated after construction")
		}
		if ob.maxEdge != msgBits || ob.sent() != 2*g.M() {
			t.Errorf("hub round: maxEdge %d, %d copies; want %d, %d", ob.maxEdge, ob.sent(), msgBits, 2*g.M())
		}

		// End to end: the max-id flood crosses the hub, and every engine
		// configuration matches RunReference.
		run := func(exec func(*Network, int) error, m engineConfig) Metrics {
			nw := NewNetworkOn(topo, m.program(func(int) Node { return NewLeaderElectNode() }), WithWorkers(m.workers))
			if err := exec(nw, 2*n); err != nil {
				t.Fatal(err)
			}
			return nw.Metrics()
		}
		want := run((*Network).RunReference, engineConfig{workers: 1})
		for _, m := range footprintMatrix {
			if got := run((*Network).Run, m); got != want {
				t.Errorf("%s: Metrics = %+v, want %+v", m.name, got, want)
			}
		}
	})
}
