package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"qcongest"
	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// apspCase is apsp-weighted-er384: qcongest.APSP, the skeleton-oracle
// all-pairs sweep, on WithWeights(RandomConnected(n, p, seed), 8, seed),
// consuming the streamed rows.
type apspCase struct {
	n    int
	p    float64
	seed int64

	g     *graph.Graph
	want  [][]int // Dijkstra row of every source
	k     int
	times []time.Duration

	// What the last traced run leaves for the init message count replay.
	topo     *congest.Topology
	info     *congest.PreInfo
	skeleton []int
	h        int
}

const apspMaxWeight = 8

func newApspCase(seed int64, tiny bool) instance {
	if tiny {
		return &apspCase{n: 80, p: 0.08, seed: seed}
	}
	return &apspCase{n: 384, p: 0.02, seed: seed}
}

func (c *apspCase) size() int    { return c.n }
func (c *apspCase) workers() int { return c.k }

func (c *apspCase) setup() (time.Duration, time.Duration, error) {
	t0 := time.Now()
	c.g = qcongest.WithWeights(qcongest.RandomConnected(c.n, c.p, c.seed), apspMaxWeight, c.seed)
	return time.Since(t0), 0, nil
}

func (c *apspCase) reference() error {
	c.want = make([][]int, c.n)
	for s := range c.want {
		c.want[s] = c.g.Dijkstra(s)
	}
	c.times = make([]time.Duration, 0, c.n)
	var err error
	c.k, err = graphWorkers(c.g)
	return err
}

// apspFingerprint renders the sweep's counts and a hash of its
// eccentricities; the rows themselves are compared against the Dijkstra
// table by both the untraced and the traced run.
func apspFingerprint(sources, rounds, init, eval int, ecc []int) string {
	h := fnv.New64a()
	for _, e := range ecc {
		fmt.Fprintf(h, "%d,", e)
	}
	return fmt.Sprintf("sources=%d rounds=%d init=%d eval=%d ecc=%x", sources, rounds, init, eval, h.Sum64())
}

func (c *apspCase) call() callResult {
	c.times = c.times[:0]
	wrong := 0
	t0 := time.Now()
	r, err := qcongest.APSP(c.g, qcongest.QuantumOptions{Seed: c.seed}, func(s int, row []int) error {
		c.times = append(c.times, time.Since(t0))
		if s != len(c.times)-1 || !slices.Equal(row, c.want[s]) {
			wrong++
		}
		return nil
	})
	wall := time.Since(t0)
	if err != nil {
		return callResult{err: err}
	}
	wrong += c.n - len(c.times)
	return callResult{
		wall:        wall,
		outputs:     slices.Clone(c.times),
		rounds:      r.Rounds,
		checked:     c.n,
		wrong:       wrong,
		fingerprint: apspFingerprint(r.Sources, r.Rounds, r.InitRounds, r.EvalRounds, r.Ecc),
	}
}

// planSkeleton mirrors core's skeleton plan: hop budget
// h = ceil(sqrt(6 n ln(n+1))) and a seeded sample of
// s = ceil(3 n ln(n+1) / h) vertices, or S = V with h = 1 up to 64
// vertices or when the sample would reach n.
func planSkeleton(n int, seed int64) ([]int, int) {
	all := func() []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	}
	if n <= 64 {
		return all(), 1
	}
	ln := math.Log(float64(n) + 1)
	h := min(int(math.Ceil(math.Sqrt(6*float64(n)*ln))), n-1)
	s := int(math.Ceil(3 * float64(n) * ln / float64(h)))
	if s >= n {
		return all(), 1
	}
	skeleton := append([]int(nil), rand.New(rand.NewSource(seed)).Perm(n)[:s]...)
	sort.Ints(skeleton)
	return skeleton, h
}

// traced rebuilds core.APSP: Topology, preprocessing, the skeleton oracle
// on core's plan, then one SkelEvalSession.Eval per source.
func (c *apspCase) traced(tr *traceResult) {
	rec := tr.rec
	var sources, init, eval int
	ecc := make([]int, c.n)
	tr.err = rec.span("core", "apsp", func() error {
		if err := rec.span("topology", "topology.build", func() (err error) {
			c.topo, err = congest.NewTopology(c.g)
			return err
		}); err != nil {
			return err
		}
		var err error
		if c.info, err = tracedPreprocess(tr, c.topo); err != nil {
			return err
		}
		c.skeleton, c.h = planSkeleton(c.n, c.seed)
		var oracle *congest.SkelOracle
		if err := rec.span("skel", "skel.init", func() (err error) {
			oracle, err = congest.NewSkelOracle(c.topo, c.info, c.skeleton, c.h, 1)
			return err
		}); err != nil {
			return err
		}
		tr.counts["skel.init_rounds"] = int64(oracle.InitRounds)
		init = int(tr.counts["preprocess.rounds"]) + oracle.InitRounds
		var es *congest.SkelEvalSession
		_ = rec.span("session", "session.build.skel_eval", func() error {
			es = oracle.NewEvalSession()
			return nil
		})
		defer es.Close()
		row := make([]int, c.n)
		eval = -1
		for s := 0; s < c.n; s++ {
			var m congest.Metrics
			if err := rec.span("engine", "engine.skel_eval", func() (err error) {
				ecc[s], m, err = es.Eval(s, row)
				return err
			}); err != nil {
				return fmt.Errorf("apsp: source %d: %w", s, err)
			}
			tr.addPhase("skel_eval", m)
			if eval == -1 {
				eval = m.Rounds
			} else if m.Rounds != eval {
				return fmt.Errorf("apsp: source %d took %d rounds, source 0 took %d", s, m.Rounds, eval)
			}
			tr.checked++
			if !slices.Equal(row, c.want[s]) {
				tr.wrong++
			}
			sources++
		}
		return nil
	})
	if tr.err == nil {
		tr.fingerprint = apspFingerprint(sources, init+sources*eval, init, eval, ecc)
	}
}

// replay counts the skeleton init's messages, which SkelOracle does not
// report: the same NewSkelOracle call again with an observer counting
// every delivered message, outside the traced total.
func (c *apspCase) replay(tr *traceResult) {
	var msgs int64
	count := congest.WithObserver(func(_, from, _, _ int, _ congest.WireView) {
		if from >= 0 {
			msgs++
		}
	})
	o, err := congest.NewSkelOracle(c.topo, c.info, c.skeleton, c.h, 1, count)
	switch {
	case err != nil:
		tr.err = fmt.Errorf("skeleton init replay: %w", err)
	case int64(o.InitRounds) != tr.counts["skel.init_rounds"]:
		tr.err = fmt.Errorf("skeleton init replay: %d rounds, traced run took %d", o.InitRounds, tr.counts["skel.init_rounds"])
	}
	tr.counts["skel.init_msgs"] = msgs
}

func (c *apspCase) release() { c.topo, c.info = nil, nil }
