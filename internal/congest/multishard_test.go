package congest

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// Frontier shards are aligned to 4096 vertices, so the equivalence suites
// on small graphs only ever exercise shard 0. This test runs a graph that
// spans three shards at WithWorkers(2) and WithWorkers(3) — cross-shard
// deliveries, per-shard wake buckets and the coordinator's delta folds all
// engaged — against RunReference, fresh and as a re-run Session.

// hashObs folds every observed delivery (and run boundary), encoded bits
// included, into h: a bit-for-bit trace comparison without keeping the
// trace.
func hashObs(h *uint64) Observer {
	f := fnv.New64a()
	return func(round, from, to, bits int, wire WireView) {
		fmt.Fprintf(f, "%d:%d->%d:%d:", round, from, to, bits)
		var b [1]byte
		for i := 0; i < wire.Len(); i++ {
			b[0] = '0'
			if wire.Bit(i) {
				b[0] = '1'
			}
			f.Write(b[:])
		}
		*h = f.Sum64()
	}
}

func TestFrontierMultiShardEquivalence(t *testing.T) {
	const side = 110 // 12100 vertices: 190 bitset words, three 64-word shards at w3
	g := graph.Grid(side, side)
	n := g.N()
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3} {
		fr := newFrontierState(n, k, nil)
		if lo, hi := fr.shardWords(k - 1); lo >= hi {
			t.Fatalf("w%d: last shard is empty; the graph no longer spans %d shards", k, k)
		}
	}

	// Scaffolding inputs from serial runs: the BFS tree the walk runs on,
	// and the walk's tau'.
	root := 0
	bfs := NewNetworkOn(topo, func(int) Node { return NewBFSNode(root) }, WithWorkers(1))
	if err := bfs.Run(8*side + 16); err != nil {
		t.Fatal(err)
	}
	parent := make([]int, n)
	children := make([][]int, n)
	d := 0
	for v := 0; v < n; v++ {
		b := bfs.Node(v).(*BFSNode)
		parent[v], children[v] = b.Parent, b.Children
		d = max(d, b.Dist)
	}
	// A short walk from a vertex in the last shard; its tau' seeds waves
	// that flood every shard.
	const steps = 8
	start := n - side/2
	walkNW := NewNetworkOn(topo, func(v int) Node {
		return NewTokenWalkNode(parent[v], children[v], root, start, steps)
	}, WithWorkers(1))
	if err := walkNW.Run(steps + 4); err != nil {
		t.Fatal(err)
	}
	tau := make([]int, n)
	for v := range tau {
		tau[v] = walkNW.Node(v).(*TokenWalkNode).Tau
	}
	waveDuration := 2*steps + 2*d + 2

	cases := []schedCase{
		{
			name: "bfs", topo: topo, maxRounds: 8*side + 16,
			make: func(int) Node { return NewBFSNode(root) },
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
			name: "walk", topo: topo, maxRounds: steps + 4,
			make: func(v int) Node {
				return NewTokenWalkNode(parent[v], children[v], root, start, steps)
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
			name: "wave", topo: topo, maxRounds: waveDuration + 4,
			make: func(v int) Node { return NewWaveNode(tau[v] >= 0, tau[v], waveDuration) },
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
			// Timer wakes only: vertex 0 pulses, every other vertex sleeps
			// until the last pulse round, in every shard at once.
			name: "pulse", topo: topo, maxRounds: 64,
			make: func(int) Node { return &pulseNode{wakes: []int{1, 3, 40}} },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					p := at(v).(*pulseNode)
					fmt.Fprintf(&sb, "%d/%v;", p.seen, p.done)
				}
				return sb.String()
			},
		},
	}

	type capture struct {
		out     string
		metrics Metrics
		trace   uint64
	}
	run := func(c schedCase, exec func(*Network, int) error, opts ...Option) capture {
		t.Helper()
		var h uint64
		nw := NewNetworkOn(c.topo, c.make, append([]Option{WithObserver(hashObs(&h))}, opts...)...)
		if err := exec(nw, c.maxRounds); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return capture{c.fingerprint(nw.Node, n), nw.Metrics(), h}
	}
	for _, c := range cases {
		want := run(c, (*Network).RunReference)
		for _, k := range []int{2, 3} {
			got := run(c, (*Network).Run, WithWorkers(k))
			if got.out != want.out {
				t.Errorf("%s w%d: outputs differ from RunReference", c.name, k)
			}
			if got.metrics != want.metrics {
				t.Errorf("%s w%d: Metrics = %+v, want %+v", c.name, k, got.metrics, want.metrics)
			}
			if got.trace != want.trace {
				t.Errorf("%s w%d: observer trace differs from RunReference", c.name, k)
			}

			sess := NewSession(c.topo, c.make, WithWorkers(k))
			for rerun := 0; rerun < 2; rerun++ {
				if err := sess.Reset(nil); err != nil {
					t.Fatal(err)
				}
				if err := sess.Run(c.maxRounds); err != nil {
					t.Fatalf("%s w%d session run %d: %v", c.name, k, rerun, err)
				}
				if out := c.fingerprint(sess.Node, n); out != want.out {
					t.Errorf("%s w%d session run %d: outputs differ from RunReference", c.name, k, rerun)
				}
				if m := sess.Metrics(); m != want.metrics {
					t.Errorf("%s w%d session run %d: Metrics = %+v, want %+v", c.name, k, rerun, m, want.metrics)
				}
			}
			sess.Close()
		}
	}
}
