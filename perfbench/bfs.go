package main

import (
	"fmt"
	"time"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// bfsCase is bfs-grid-1m: the paper's Figure 1 BFS with ecc convergecast
// from vertex 0 of a side x side grid, on a topology streamed straight into
// CSR form. The grid does not depend on the seed.
type bfsCase struct {
	side int

	csr  *graph.CSR
	topo *congest.Topology
	want []int32 // CSR.BFSInto distances from vertex 0
	ecc  int
	k    int
	nw   *congest.Network // the last run, kept alive for the heap figure
}

func newBFSCase(_ int64, tiny bool) instance {
	if tiny {
		return &bfsCase{side: 24}
	}
	return &bfsCase{side: 1000}
}

func (c *bfsCase) size() int    { return c.side * c.side }
func (c *bfsCase) workers() int { return c.k }

func (c *bfsCase) setup() (time.Duration, time.Duration, error) {
	c.csr, c.topo = nil, nil // let the previous build be collected first
	t0 := time.Now()
	csr, err := graph.BuildCSRFromStream(c.size(), graph.GridEdges(c.side, c.side))
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	topo, err := congest.NewTopologyFromCSR(csr)
	if err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	c.csr, c.topo = csr, topo
	return t1.Sub(t0), t2.Sub(t1), nil
}

func (c *bfsCase) reference() error {
	c.want = make([]int32, c.size())
	reached, ecc := c.csr.BFSInto(0, c.want, make([]int32, 0, c.size()))
	if reached != c.size() {
		return fmt.Errorf("grid reaches %d of %d vertices", reached, c.size())
	}
	c.ecc = int(ecc)
	c.k = topologyWorkers(c.topo)
	return nil
}

func (c *bfsCase) newNetwork() {
	c.nw = congest.NewNetworkOn(c.topo, func(int) congest.Node { return congest.NewBFSNode(0) })
}

func (c *bfsCase) maxRounds() int { return 4*c.side + 16 }

// check compares every BFS distance with the reference and returns the
// run's fingerprint: its Metrics and the root's eccentricity.
func (c *bfsCase) check() (wrong int, fingerprint string) {
	for v := range c.want {
		if c.nw.Node(v).(*congest.BFSNode).Dist != int(c.want[v]) {
			wrong++
		}
	}
	rootEcc := c.nw.Node(0).(*congest.BFSNode).Ecc
	if rootEcc != c.ecc {
		wrong++
	}
	return wrong, fmt.Sprintf("%+v ecc=%d", c.nw.Metrics(), rootEcc)
}

func (c *bfsCase) call() callResult {
	t0 := time.Now()
	c.newNetwork()
	err := c.nw.Run(c.maxRounds())
	wall := time.Since(t0)
	if err != nil {
		return callResult{err: err}
	}
	wrong, fp := c.check()
	return callResult{
		wall:        wall,
		outputs:     []time.Duration{wall},
		rounds:      c.nw.Metrics().Rounds,
		checked:     1,
		wrong:       min(wrong, 1),
		fingerprint: fp,
	}
}

// traced makes the same calls as call, each as a span.
func (c *bfsCase) traced(tr *traceResult) {
	rec := tr.rec
	tr.err = rec.span("core", "bfs", func() error {
		_ = rec.span("session", "session.build.bfs", func() error {
			c.newNetwork()
			return nil
		})
		return rec.span("engine", "engine.bfs", func() error { return c.nw.Run(c.maxRounds()) })
	})
	if tr.err != nil {
		return
	}
	tr.addPhase("bfs", c.nw.Metrics())
	wrong, fp := c.check()
	tr.checked, tr.wrong, tr.fingerprint = 1, min(wrong, 1), fp
}

func (c *bfsCase) replay(*traceResult) {}

func (c *bfsCase) release() { c.nw = nil }
