package core

import (
	"runtime"
	"sync"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// TestAutoParallelPinsSerialEngines pins the contract of Parallel 0 on the
// query-backed entry points: it resolves to min(GOMAXPROCS, |domain|)
// contexts, and whenever more than one context runs, every pooled
// evaluation Session runs one engine worker — unless Engine sets
// WithWorkers itself, which wins.
func TestAutoParallelPinsSerialEngines(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	// Three frontier shards: the automatic engine rule alone would start
	// three workers here (given three CPUs).
	topo, err := congest.NewTopology(graph.Path(3 * 4096))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var workers []int // EffectiveWorkers of every evaluation session built
	fam := evalFamily(func(engine []congest.Option) *evalContext {
		s := congest.NewSession(topo, func(int) congest.Node { return congest.NewMinFloodNode(false) }, engine...)
		mu.Lock()
		workers = append(workers, s.EffectiveWorkers())
		mu.Unlock()
		return &evalContext{
			eval:  func(x int) (int, int, error) { return x % 5, 3, nil },
			close: s.Close,
		}
	})
	cases := []struct {
		name     string
		procs    int
		domain   int
		opts     Options
		contexts int
		want     int // EffectiveWorkers of each session
	}{
		{"auto", 4, 16, Options{}, 4, 1},
		{"auto, small domain", 4, 2, Options{}, 2, 1},
		{"auto, one CPU", 1, 16, Options{}, 1, 1},
		{"auto, explicit workers", 4, 16, Options{Engine: []congest.Option{congest.WithWorkers(2)}}, 4, 2},
		{"explicit parallel", 4, 16, Options{Parallel: 3}, 3, 1},
		{"sequential", 3, 16, Options{Parallel: 1}, 1, 3},
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.procs)
		workers = workers[:0]
		if _, err := runOptimization(fam, c.opts, optimizationParams{
			domain: identityDomain(c.domain), eps: 1 / float64(c.domain), setupRounds: 1,
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(workers) != c.contexts {
			t.Errorf("%s: %d evaluation contexts, want %d", c.name, len(workers), c.contexts)
		}
		for _, k := range workers {
			if k != c.want {
				t.Errorf("%s: evaluation session EffectiveWorkers = %d, want %d", c.name, k, c.want)
			}
		}
	}
}
