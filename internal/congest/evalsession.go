package congest

// Composite sessions for the paper's Evaluation procedure (Figure 2): the
// quantum algorithms run one token walk plus one wave-and-convergecast per
// Evaluation, hundreds of times per optimization. WalkSession and
// EccSession are the reusable counterparts of the one-shot TokenWalk and
// EccentricitiesOf helpers: built once per (topology, tree, schedule), then
// Reset+Run per Evaluation. Each Eval is bit-for-bit identical — values,
// Metrics, observer traces, error strings — to the fresh-network helper it
// replaces; the session determinism tests assert that equivalence.

import "fmt"

// WalkSession is a reusable TokenWalk: the Figure 2 Step 1 walk over a
// fixed tree, re-runnable from a different start vertex per execution.
type WalkSession struct {
	s     *Session
	tw    []*TokenWalkNode // the programs, pre-asserted for the tau read-out
	steps int
	tau   []int
}

// NewWalkSession builds the walk session: L = steps token moves on the tree
// described by info with the given per-node child lists. The start vertex
// is an Eval argument, not fixed here.
func NewWalkSession(topo *Topology, info *PreInfo, children [][]int, steps int, opts ...Option) *WalkSession {
	n := topo.N()
	ws := &WalkSession{
		s: newSlabSession(topo, func() func(v int) Node {
			progs, kids := make([]TokenWalkNode, n), copyRows(children)
			return func(v int) Node {
				progs[v] = tokenWalkNode(info.Parent[v], kids[v], info.Leader, -1, steps)
				return &progs[v]
			}
		}, opts...),
		steps: steps,
		tau:   make([]int, topo.N()),
	}
	ws.cacheNodes()
	return ws
}

// cacheNodes pre-asserts the node programs so the per-Eval tau read-out is
// a pointer chase, not n interface assertions.
func (ws *WalkSession) cacheNodes() {
	ws.tw = make([]*TokenWalkNode, len(ws.tau))
	for v := range ws.tw {
		ws.tw[v] = ws.s.Node(v).(*TokenWalkNode)
	}
}

// Eval runs one walk from start and returns tau' (-1 for unvisited
// vertices). The returned slice is owned by the session and only valid
// until the next Eval.
func (ws *WalkSession) Eval(start int) ([]int, Metrics, error) {
	if err := ws.s.Reset(WalkStart{Start: start}); err != nil {
		return nil, Metrics{}, err
	}
	if err := ws.s.Run(ws.steps + 4); err != nil {
		return nil, ws.s.Metrics(), fmt.Errorf("token walk: %w", err)
	}
	for v, tw := range ws.tw {
		ws.tau[v] = tw.Tau
	}
	return ws.tau, ws.s.Metrics(), nil
}

// Clone builds an independent walk session over the same shared topology.
// Like Session.Clone, it refuses when the session carries an observer.
func (ws *WalkSession) Clone() (*WalkSession, error) {
	s, err := ws.s.Clone()
	if err != nil {
		return nil, err
	}
	c := &WalkSession{s: s, steps: ws.steps, tau: make([]int, len(ws.tau))}
	c.cacheNodes()
	return c, nil
}

// Close releases the session's engine.
func (ws *WalkSession) Close() { ws.s.Close() }

// EccSession is a reusable EccentricitiesOf: the Figure 2 Step 2 wave
// process followed by the Step 3 max convergecast on BFS(leader),
// re-runnable with a different tau' assignment per execution.
type EccSession struct {
	wave     *Session
	cc       *Session
	leader   int
	duration int
	dv       []int
}

// NewEccSession builds the wave+convergecast pair on the tree described by
// info. waveDuration is the fixed length of the wave process (callers
// derive it from d, as for EccentricitiesOf).
func NewEccSession(topo *Topology, info *PreInfo, waveDuration int, opts ...Option) *EccSession {
	n := topo.N()
	return &EccSession{
		wave: newSlabSession(topo, func() func(v int) Node {
			progs := make([]WaveNode, n)
			return func(v int) Node {
				progs[v] = *NewWaveNode(false, -1, waveDuration)
				return &progs[v]
			}
		}, opts...),
		cc: newSlabSession(topo, func() func(v int) Node {
			progs, kids := make([]ConvergecastMaxNode, n), copyRows(info.Children)
			return func(v int) Node {
				progs[v] = convergecastMaxNode(info.Parent[v], kids[v], 0, v)
				return &progs[v]
			}
		}, opts...),
		leader:   info.Leader,
		duration: waveDuration,
		dv:       make([]int, topo.N()),
	}
}

// Eval computes max_{u in S} ecc(u) for the set S given as tau'
// assignments (tau[v] >= 0 iff v in S), exactly like EccentricitiesOf.
func (es *EccSession) Eval(tau []int) (int, Metrics, error) {
	var total Metrics
	if err := es.wave.Reset(WaveTau{Tau: tau}); err != nil {
		return 0, total, err
	}
	if err := es.wave.Run(es.duration + 4); err != nil {
		return 0, total, fmt.Errorf("wave process: %w", err)
	}
	for v := range es.dv {
		wn := es.wave.Node(v).(*WaveNode)
		if wn.Violation != nil {
			return 0, total, wn.Violation
		}
		es.dv[v] = wn.DV
	}
	total.Add(es.wave.Metrics())
	if err := es.cc.Reset(MaxInputs{Values: es.dv}); err != nil {
		return 0, total, err
	}
	if err := es.cc.Run(4*len(es.dv) + 16); err != nil {
		return 0, total, fmt.Errorf("convergecast: %w", err)
	}
	total.Add(es.cc.Metrics())
	return es.cc.Node(es.leader).(*ConvergecastMaxNode).Max, total, nil
}

// Clone builds an independent ecc session over the same shared topology.
// Like Session.Clone, it refuses when the sessions carry an observer.
func (es *EccSession) Clone() (*EccSession, error) {
	wave, err := es.wave.Clone()
	if err != nil {
		return nil, err
	}
	cc, err := es.cc.Clone()
	if err != nil {
		return nil, err
	}
	return &EccSession{
		wave:     wave,
		cc:       cc,
		leader:   es.leader,
		duration: es.duration,
		dv:       make([]int, len(es.dv)),
	}, nil
}

// Close releases both sessions' engines.
func (es *EccSession) Close() {
	es.wave.Close()
	es.cc.Close()
}

// copyRows copies a per-vertex list table into one flat arena: row v of
// the result is a capacity-capped view (nil when empty, like a per-row
// append copy), so a session's programs own their lists in two
// allocations instead of one per vertex.
func copyRows(rows [][]int) [][]int {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	arena := make([]int, 0, total)
	out := make([][]int, len(rows))
	for v, r := range rows {
		if len(r) > 0 {
			lo := len(arena)
			arena = append(arena, r...)
			out[v] = arena[lo:len(arena):len(arena)]
		}
	}
	return out
}
