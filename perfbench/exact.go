package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"qcongest"
	"qcongest/internal/amplify"
	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/qsim"
	"qcongest/internal/query"
)

// exactCase is exact-diameter-er1024: qcongest.QuantumExactDiameter, the
// paper's Theorem 1 algorithm, on RandomConnected(n, p, seed).
type exactCase struct {
	n    int
	p    float64
	seed int64

	g    *graph.Graph
	want int // Graph.Diameter()
	k    int // engine workers

	// What the last traced run leaves for its amplification replay.
	oracle *timedOracle
	eps    float64
	result query.Result
}

func newExactCase(seed int64, tiny bool) instance {
	if tiny {
		return &exactCase{n: 48, p: 0.12, seed: seed}
	}
	return &exactCase{n: 1024, p: 0.01, seed: seed}
}

func (c *exactCase) size() int    { return c.n }
func (c *exactCase) workers() int { return c.k }

func (c *exactCase) setup() (time.Duration, time.Duration, error) {
	t0 := time.Now()
	c.g = qcongest.RandomConnected(c.n, c.p, c.seed)
	return time.Since(t0), 0, nil
}

func (c *exactCase) reference() error {
	var err error
	if c.want, err = c.g.Diameter(); err != nil {
		return err
	}
	c.k, err = graphWorkers(c.g)
	return err
}

func exactFingerprint(diameter, rounds, init, setup, eval, iterations int) string {
	return fmt.Sprintf("diameter=%d rounds=%d init=%d setup=%d eval=%d iterations=%d",
		diameter, rounds, init, setup, eval, iterations)
}

func (c *exactCase) call() callResult {
	t0 := time.Now()
	r, err := qcongest.QuantumExactDiameter(c.g, qcongest.QuantumOptions{Seed: c.seed})
	wall := time.Since(t0)
	if err != nil {
		return callResult{err: err}
	}
	res := callResult{
		wall:        wall,
		outputs:     []time.Duration{wall},
		rounds:      r.Rounds,
		checked:     1,
		fingerprint: exactFingerprint(r.Diameter, r.Rounds, r.InitRounds, r.SetupRounds, r.EvalRounds, r.Iterations),
	}
	if r.Diameter != c.want {
		res.wrong = 1
	}
	return res
}

// traced rebuilds core.ExactDiameter: Topology, preprocessing, then
// query.Maximum over an oracle whose Evaluation is the Figure 2 walk, wave
// and convergecast, each a Session built from the exported node programs.
func (c *exactCase) traced(tr *traceResult) {
	rec := tr.rec
	tr.err = rec.span("core", "exact-diameter", func() error {
		var topo *congest.Topology
		if err := rec.span("topology", "topology.build", func() (err error) {
			topo, err = congest.NewTopology(c.g)
			return err
		}); err != nil {
			return err
		}
		info, err := tracedPreprocess(tr, topo)
		if err != nil {
			return err
		}
		n, d := topo.N(), info.D
		domain := make([]int, n)
		for i := range domain {
			domain[i] = i
		}
		c.oracle = &timedOracle{
			tr: tr, topo: topo, info: info, domain: domain,
			initRounds: int(tr.counts["preprocess.rounds"]), setupRounds: d + 1,
			steps: 2 * d, waveDuration: 6*d + 2,
			memo: make(map[int]int, n),
		}
		c.eps = math.Min(1, float64(d)/(2*float64(n))) // Lemma 1
		return rec.span("query", "query.maximum", func() (err error) {
			c.result, err = query.Maximum(c.oracle, c.eps, query.Options{Seed: c.seed})
			return err
		})
	})
	if tr.err != nil {
		return
	}
	r := c.result
	tr.counts["query.evals"] = int64(len(c.oracle.memo))
	tr.fingerprint = exactFingerprint(r.Value, r.Rounds, r.InitRounds, r.SetupRounds, r.EvalRounds, r.Iterations)
	tr.checked = 1
	if r.Value != c.want {
		tr.wrong = 1
	}
}

// replay re-runs the amplification of the traced query against its memo
// table: amplify.FindMax over the uniform state with the query's eps,
// delta and seed, which must retrace the query's result exactly.
func (c *exactCase) replay(tr *traceResult) {
	memo := c.oracle.memo
	var calls int64
	missing := false
	f := func(x int) int {
		calls++
		v, ok := memo[x]
		missing = missing || !ok
		return v
	}
	t0 := time.Now()
	phi, err := qsim.NewUniform(c.oracle.domain)
	if err != nil {
		tr.err = err
		return
	}
	mr, err := amplify.FindMax(phi, f, c.eps, 0.1, rand.New(rand.NewSource(c.seed)))
	tr.amplify = time.Since(t0)
	r := c.result
	switch {
	case err != nil:
		tr.err = fmt.Errorf("amplify replay: %w", err)
	case missing || mr.Argmax != r.X || mr.Value != r.Value || mr.Counters.GroverIterations != r.Iterations:
		tr.err = fmt.Errorf("amplify replay diverged: argmax %d value %d iterations %d, query gave %d %d %d",
			mr.Argmax, mr.Value, mr.Counters.GroverIterations, r.X, r.Value, r.Iterations)
	}
	tr.counts["amplify.iterations"] = int64(mr.Counters.GroverIterations)
	tr.counts["amplify.f_calls"] = calls
}

func (c *exactCase) release() { c.oracle = nil }

// timedOracle is the query.Oracle core.ExactDiameter builds, with every
// Session call timed as a span.
type timedOracle struct {
	tr                      *traceResult
	topo                    *congest.Topology
	info                    *congest.PreInfo
	domain                  []int
	initRounds, setupRounds int
	steps, waveDuration     int
	memo                    map[int]int // value of every evaluated input
}

func (o *timedOracle) Domain() []int    { return o.domain }
func (o *timedOracle) InitRounds() int  { return o.initRounds }
func (o *timedOracle) SetupRounds() int { return o.setupRounds }

// NewContext builds the walk, wave and convergecast sessions of one
// evaluation context.
func (o *timedOracle) NewContext() query.Context {
	topo, info, n := o.topo, o.info, o.topo.N()
	c := &timedContext{o: o, tau: make([]int, n), dv: make([]int, n)}
	_ = o.tr.rec.span("session", "session.build.walk", func() error {
		c.walk = congest.NewSession(topo, func(v int) congest.Node {
			return congest.NewTokenWalkNode(info.Parent[v], info.Children[v], info.Leader, -1, o.steps)
		})
		c.walkNodes = make([]*congest.TokenWalkNode, n)
		for v := range c.walkNodes {
			c.walkNodes[v] = c.walk.Node(v).(*congest.TokenWalkNode)
		}
		return nil
	})
	_ = o.tr.rec.span("session", "session.build.wave", func() error {
		c.wave = congest.NewSession(topo, func(int) congest.Node {
			return congest.NewWaveNode(false, -1, o.waveDuration)
		})
		c.waveNodes = make([]*congest.WaveNode, n)
		for v := range c.waveNodes {
			c.waveNodes[v] = c.wave.Node(v).(*congest.WaveNode)
		}
		return nil
	})
	_ = o.tr.rec.span("session", "session.build.convergecast", func() error {
		c.cc = congest.NewSession(topo, func(v int) congest.Node {
			return congest.NewConvergecastMaxNode(info.Parent[v], info.Children[v], 0, v)
		})
		return nil
	})
	return c
}

// timedContext is one evaluation context of timedOracle.
type timedContext struct {
	o              *timedOracle
	walk, wave, cc *congest.Session
	walkNodes      []*congest.TokenWalkNode
	waveNodes      []*congest.WaveNode
	tau, dv        []int
}

// Eval runs Figure 2 for u0: the 2d-step token walk assigning tau', the
// wave process over S(u0), and the max convergecast to the leader.
func (c *timedContext) Eval(u0 int) (int, int, error) {
	o := c.o
	var value, rounds int
	err := o.tr.rec.span("core", "eval", func() error {
		mw, err := runPhase(o.tr, "walk", c.walk, congest.WalkStart{Start: u0}, o.steps+4)
		if err != nil {
			return fmt.Errorf("token walk: %w", err)
		}
		for v, tw := range c.walkNodes {
			c.tau[v] = tw.Tau
		}
		mv, err := runPhase(o.tr, "wave", c.wave, congest.WaveTau{Tau: c.tau}, o.waveDuration+4)
		if err != nil {
			return fmt.Errorf("wave process: %w", err)
		}
		for v, wn := range c.waveNodes {
			if wn.Violation != nil {
				return wn.Violation
			}
			c.dv[v] = wn.DV
		}
		mc, err := runPhase(o.tr, "convergecast", c.cc, congest.MaxInputs{Values: c.dv}, 4*len(c.dv)+16)
		if err != nil {
			return fmt.Errorf("convergecast: %w", err)
		}
		value = c.cc.Node(o.info.Leader).(*congest.ConvergecastMaxNode).Max
		rounds = mw.Rounds + mv.Rounds + mc.Rounds
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	o.memo[u0] = value
	return value, rounds, nil
}

func (c *timedContext) Close() {
	c.walk.Close()
	c.wave.Close()
	c.cc.Close()
}

// runPhase resets and runs one session as two spans and adds the run's
// metrics to the phase's totals.
func runPhase(tr *traceResult, phase string, s *congest.Session, params any, maxRounds int) (congest.Metrics, error) {
	rec := tr.rec
	if err := rec.span("session", "session.reset."+phase, func() error { return s.Reset(params) }); err != nil {
		return congest.Metrics{}, err
	}
	err := rec.span("engine", "engine."+phase, func() error { return s.Run(maxRounds) })
	m := s.Metrics()
	tr.addPhase(phase, m)
	return m, err
}

// tracedPreprocess runs congest.PreprocessOn as a span and records its
// counts.
func tracedPreprocess(tr *traceResult, topo *congest.Topology) (*congest.PreInfo, error) {
	var info *congest.PreInfo
	err := tr.rec.span("preprocess", "preprocess", func() error {
		var pre congest.Metrics
		var err error
		info, pre, err = congest.PreprocessOn(topo)
		tr.counts["preprocess.rounds"] = int64(pre.Rounds)
		tr.counts["preprocess.msgs"] = int64(pre.Messages)
		return err
	})
	return info, err
}

// graphWorkers is the engine worker count Network.EffectiveWorkers reports
// for g under the workloads' options (the library defaults).
func graphWorkers(g *graph.Graph) (int, error) {
	topo, err := congest.NewTopology(g)
	if err != nil {
		return 0, err
	}
	return topologyWorkers(topo), nil
}

func topologyWorkers(topo *congest.Topology) int {
	return congest.NewNetworkOn(topo, func(int) congest.Node { return nil }).EffectiveWorkers()
}
