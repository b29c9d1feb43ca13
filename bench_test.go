package qcongest

// One benchmark per artifact of the paper's evaluation: the rows of
// Table 1 and the figure experiments (see the per-experiment index in
// DESIGN.md). Each benchmark reports the domain metric — distributed
// rounds, messages, or qubits — via b.ReportMetric, so `go test -bench=.`
// regenerates the paper's comparisons. EXPERIMENTS.md records the measured
// values against the theory.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
	"qcongest/internal/simulation"
)

func benchGraph(b *testing.B, n, d int) *Graph {
	b.Helper()
	g, err := LollipopWithDiameter(n, d)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// --- Table 1, row "Exact computation", classical column: Theta(n). ---

func BenchmarkTable1ExactClassical(b *testing.B) {
	for _, n := range []int{40, 80, 160} {
		g := benchGraph(b, n, 4)
		b.Run(sizeName(n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := congest.ClassicalExactDiameter(g)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Metrics.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

// --- Table 1, row "Exact computation", quantum column: Õ(sqrt(nD)). ---

func BenchmarkTable1ExactQuantum(b *testing.B) {
	for _, n := range []int{40, 80, 160} {
		g := benchGraph(b, n, 4)
		b.Run(sizeName(n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := QuantumExactDiameter(g, QuantumOptions{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

// Section 3.1 ablation: the simpler Õ(sqrt(n)D) algorithm, for comparison
// with the final Theorem 1 algorithm.
func BenchmarkTable1ExactQuantumSimple(b *testing.B) {
	g := benchGraph(b, 80, 4)
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := QuantumExactDiameterSimple(g, QuantumOptions{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Rounds
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds")
}

// Theorem 1's D-dependence: rounds ~ sqrt(D) with n fixed.
func BenchmarkTable1ExactQuantumDSweep(b *testing.B) {
	for _, d := range []int{3, 6, 12} {
		g := benchGraph(b, 60, d)
		b.Run("D="+itoa(d), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := QuantumExactDiameter(g, QuantumOptions{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

// --- Table 1, row "3/2-approximation". ---

func BenchmarkTable1ApproxClassical(b *testing.B) {
	for _, n := range []int{40, 120} {
		g := benchGraph(b, n, 4)
		b.Run(sizeName(n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := ClassicalApproxDiameter(g, 0, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				total += res.Metrics.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

func BenchmarkTable1ApproxQuantum(b *testing.B) {
	for _, n := range []int{40, 120} {
		g := benchGraph(b, n, 4)
		b.Run(sizeName(n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := QuantumApproxDiameter(g, QuantumOptions{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

// --- Table 1, rows "lower bounds": the Theorem 5 tradeoff and the
// Theorem 10 conversion. ---

func BenchmarkTable1DisjTradeoff(b *testing.B) {
	for _, budget := range []int{16, 64, 256} {
		b.Run("r="+itoa(budget), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			totalQubits := 0
			for i := 0; i < b.N; i++ {
				x, y := RandomIntersectingPair(4096, rng)
				blocks := (budget / 4) * (budget / 4)
				if blocks > 4096 {
					blocks = 4096
				}
				res, err := BlockedGroverDisj(x, y, blocks, rng)
				if err != nil {
					b.Fatal(err)
				}
				totalQubits += res.Metrics.Qubits
			}
			b.ReportMetric(float64(totalQubits)/float64(b.N), "qubits")
		})
	}
}

func BenchmarkTable1LowerBoundSqrtN(b *testing.B) {
	red, err := NewHW12Reduction(3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	totalBits := 0
	for i := 0; i < b.N; i++ {
		x, y := RandomIntersectingPair(red.K, rng)
		res, err := TwoPartyFromCongest(red, x, y)
		if err != nil {
			b.Fatal(err)
		}
		totalBits += res.CutBits
	}
	b.ReportMetric(float64(totalBits)/float64(b.N), "cut-bits")
}

// --- Figure experiments. ---

// Figure 1: BFS construction is O(D) rounds.
func BenchmarkFigureF1BFS(b *testing.B) {
	g := RandomConnected(120, 0.05, 9)
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		_, m, err := congest.Preprocess(g)
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += m.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
}

// Figure 2: one Evaluation execution is O(D) rounds regardless of u0.
func BenchmarkFigureF2Evaluation(b *testing.B) {
	g := RandomConnected(100, 0.06, 10)
	info, _, err := congest.Preprocess(g)
	if err != nil {
		b.Fatal(err)
	}
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		u0 := i % g.N()
		tau, mw, err := congest.TokenWalk(g, info, info.Children, u0, 2*info.D)
		if err != nil {
			b.Fatal(err)
		}
		_, mr, err := congest.EccentricitiesOf(g, info, tau, 6*info.D+2)
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += mw.Rounds + mr.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
}

// Figure 4: building and checking the Theorem 8 graph.
func BenchmarkFigureF4HW12(b *testing.B) {
	red, err := NewHW12Reduction(8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < b.N; i++ {
		x, y := RandomIntersectingPair(red.K, rng)
		g, err := red.Build(x, y)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Diameter(); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 6-7: the Theorem 11 two-party simulation; the metric is messages
// per run (O(r/d)).
func BenchmarkFigureF6F7Simulation(b *testing.B) {
	for _, d := range []int{4, 16} {
		b.Run("d="+itoa(d), func(b *testing.B) {
			alg := simulation.NewRelayAlgorithm(d, func(x, y uint64) uint64 { return x ^ y })
			totalMsgs := 0
			for i := 0; i < b.N; i++ {
				res, err := alg.RunTwoParty(uint64(i), uint64(2*i+1))
				if err != nil {
					b.Fatal(err)
				}
				totalMsgs += res.Metrics.Messages
			}
			b.ReportMetric(float64(totalMsgs)/float64(b.N), "messages")
		})
	}
}

// Figure 8: subdivided graphs G'_n(x, y) and their diameters.
func BenchmarkFigureF8Subdivided(b *testing.B) {
	red, err := NewACHK16Reduction(16)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < b.N; i++ {
		x, y := RandomIntersectingPair(red.K, rng)
		sub, err := BuildSubdivided(red, x, y, 6)
		if err != nil {
			b.Fatal(err)
		}
		diam, err := sub.G.Diameter()
		if err != nil {
			b.Fatal(err)
		}
		if diam != sub.RightDiameter {
			b.Fatalf("diameter %d, want %d", diam, sub.RightDiameter)
		}
	}
}

// Lemma 1: coverage computation.
func BenchmarkFigureLemma1(b *testing.B) {
	g := RandomConnected(80, 0.06, 12)
	for i := 0; i < b.N; i++ {
		minProb, bound, err := Lemma1Coverage(g)
		if err != nil {
			b.Fatal(err)
		}
		if minProb < bound {
			b.Fatalf("coverage %g below bound %g", minProb, bound)
		}
	}
}

// --- Engine benchmark: sequential reference engine vs the sharded engine.
//
// The workload is max-id leader election (congest.LeaderElectNode): every
// vertex floods improvements, so rounds carry work at every node — the
// engine's per-round machinery (send validation, buffering, merge, receive
// dispatch) dominates, which is exactly what this benchmark isolates. The
// same workload and graphs back BENCH_engine.json (see
// TestWriteEngineBench) and the speedup table in EXPERIMENTS.md.

// engineBenchGraph builds one of the three benchmark families.
func engineBenchGraph(kind string, n int) *Graph {
	switch kind {
	case "path":
		return Path(n)
	case "random":
		return RandomConnected(n, 8/float64(n), int64(n))
	case "smallworld":
		return SmallWorld(n, 2, 0.2, int64(n))
	default:
		panic("unknown engine benchmark graph " + kind)
	}
}

// runEngineWorkload executes one leader election and returns the executed
// rounds. run selects the engine: (*Network).RunReference or (*Network).Run.
func runEngineWorkload(g *Graph, workers int, run func(*congest.Network, int) error) (int, error) {
	nw, err := congest.NewNetwork(g, func(v int) congest.Node { return congest.NewLeaderElectNode() },
		congest.WithWorkers(workers))
	if err != nil {
		return 0, err
	}
	if err := run(nw, 4*g.N()+16); err != nil {
		return 0, err
	}
	return nw.Metrics().Rounds, nil
}

func BenchmarkEngine(b *testing.B) {
	for _, kind := range []string{"path", "random", "smallworld"} {
		for _, n := range []int{256, 1024} {
			g := engineBenchGraph(kind, n)
			b.Run(kind+"/"+sizeName(n)+"/reference", func(b *testing.B) {
				b.ReportAllocs()
				totalRounds := 0
				for i := 0; i < b.N; i++ {
					r, err := runEngineWorkload(g, 1, (*congest.Network).RunReference)
					if err != nil {
						b.Fatal(err)
					}
					totalRounds += r
				}
				b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
			})
			b.Run(kind+"/"+sizeName(n)+"/engine", func(b *testing.B) {
				b.ReportAllocs()
				totalRounds := 0
				for i := 0; i < b.N; i++ {
					r, err := runEngineWorkload(g, runtime.NumCPU(), (*congest.Network).Run)
					if err != nil {
						b.Fatal(err)
					}
					totalRounds += r
				}
				b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}

// engineBenchResult is one row of BENCH_engine.json.
type engineBenchResult struct {
	Graph                string  `json:"graph"`
	N                    int     `json:"n"`
	Rounds               int     `json:"rounds"`
	Workers              int     `json:"workers"`
	SequentialRoundsPerS float64 `json:"sequential_rounds_per_sec"`
	EngineRoundsPerS     float64 `json:"engine_rounds_per_sec"`
	Speedup              float64 `json:"speedup"`
}

type engineBenchFile struct {
	GeneratedBy string              `json:"generated_by"`
	GoVersion   string              `json:"go_version"`
	NumCPU      int                 `json:"num_cpu"`
	Workload    string              `json:"workload"`
	Note        string              `json:"note"`
	Results     []engineBenchResult `json:"results"`
}

// measureEngine times run over enough repetitions to cross a wall-clock
// floor and reports rounds per second.
func measureEngine(t *testing.T, g *Graph, workers int, run func(*congest.Network, int) error) (rounds int, roundsPerSec float64) {
	t.Helper()
	const floor = 300 * time.Millisecond
	var elapsed time.Duration
	total := 0
	for reps := 0; (elapsed < floor && reps < 64) || reps < 1; reps++ {
		start := time.Now()
		r, err := runEngineWorkload(g, workers, run)
		elapsed += time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		rounds = r
		total += r
	}
	return rounds, float64(total) / elapsed.Seconds()
}

// TestWriteEngineBench regenerates BENCH_engine.json. It is too slow for
// the default test run, so it is gated:
//
//	QCONGEST_BENCH_ENGINE=1 go test -run TestWriteEngineBench -timeout 30m
func TestWriteEngineBench(t *testing.T) {
	if os.Getenv("QCONGEST_BENCH_ENGINE") == "" {
		t.Skip("set QCONGEST_BENCH_ENGINE=1 to measure and write BENCH_engine.json")
	}
	out := engineBenchFile{
		GeneratedBy: "QCONGEST_BENCH_ENGINE=1 go test -run TestWriteEngineBench",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workload:    "max-id leader election flood (congest.LeaderElectNode), rounds/sec",
		Note: "sequential = the retained pre-parallel reference engine (RunReference); " +
			"engine = the sharded engine (Run) with workers = NumCPU. Outputs of the two " +
			"are bit-for-bit identical; only wall-clock time differs.",
	}
	for _, kind := range []string{"path", "random", "smallworld"} {
		for _, n := range []int{256, 1024, 4096} {
			g := engineBenchGraph(kind, n)
			rounds, seqRPS := measureEngine(t, g, 1, (*congest.Network).RunReference)
			_, engRPS := measureEngine(t, g, runtime.NumCPU(), (*congest.Network).Run)
			res := engineBenchResult{
				Graph: kind, N: n, Rounds: rounds, Workers: runtime.NumCPU(),
				SequentialRoundsPerS: seqRPS, EngineRoundsPerS: engRPS,
				Speedup: engRPS / seqRPS,
			}
			out.Results = append(out.Results, res)
			t.Logf("%-10s n=%-5d rounds=%-5d seq=%.0f r/s engine=%.0f r/s speedup=%.2fx",
				kind, n, rounds, seqRPS, engRPS, res.Speedup)
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_engine.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_engine.json")
}

// --- Wire-format benchmark: BENCH_wire.json. ---
//
// PR 2 replaced boxed `Payload any` messages + declared sizes with the
// typed wire format: every message is encoded to bits in recycled
// per-worker arenas and all accounting derives from the encoded length.
// This benchmark records the allocation and throughput effect. The
// "before" numbers are the boxed-payload engine measured at the PR 2
// boundary on the same machine (see wireBaseline below) together with the
// committed PR 1 throughput record in BENCH_engine.json.

// floodMsg is the steady-state workload message, defined via the public
// wire API (one id field).
type floodMsg struct{ V int }

const kindFlood MessageKind = 21

func (m *floodMsg) WireKind() MessageKind       { return kindFlood }
func (m *floodMsg) MarshalWire(w *WireWriter)   { w.WriteID(m.V, w.N) }
func (m *floodMsg) UnmarshalWire(r *WireReader) { m.V = r.ReadID(r.N) }

func init() {
	RegisterMessageKind(kindFlood, "test-flood", func() WireMessage { return new(floodMsg) })
}

// benchFloodNode broadcasts one message per round to every neighbor for a
// fixed number of rounds, decoding everything it receives.
type benchFloodNode struct {
	rounds int
	done   bool
	tx, rx floodMsg
}

func (f *benchFloodNode) Send(env *CongestEnv, out *Outbox) {
	if env.Round > f.rounds {
		return
	}
	f.tx.V = env.ID
	out.Broadcast(env.Neighbors, &f.tx)
}

func (f *benchFloodNode) Receive(env *CongestEnv, inbox []Inbound) {
	for i := range inbox {
		if inbox[i].Kind == kindFlood {
			_ = inbox[i].Decode(env, &f.rx)
		}
	}
	if env.Round >= f.rounds {
		f.done = true
	}
}

func (f *benchFloodNode) Done() bool { return f.done }

// steadyAllocsPerRound measures the allocations the engine adds per
// steady-state round: the alloc difference between a long and a short
// flood run, divided by the extra rounds (setup and warmup cancel).
func steadyAllocsPerRound(t *testing.T, g *Graph, workers int) float64 {
	t.Helper()
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			nw, err := NewCongestNetwork(g, func(v int) CongestNode { return &benchFloodNode{rounds: rounds} },
				WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if err := nw.Run(rounds + 4); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (run(116) - run(16)) / 100
}

// wireBaseline is the boxed-payload engine (PR 1) measured immediately
// before this refactor, on the leader-election workload of BenchmarkEngine
// (go test -bench 'BenchmarkEngine/.../n=1024' -benchmem, this machine).
var wireBaseline = map[string]struct {
	AllocsPerRun float64 `json:"allocs_per_run"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
}{
	"path/n=1024/engine":   {AllocsPerRun: 1510937, RoundsPerSec: 12460},
	"random/n=1024/engine": {AllocsPerRun: 48036, RoundsPerSec: 1652},
}

type wireBenchResult struct {
	Graph                string  `json:"graph"`
	N                    int     `json:"n"`
	Rounds               int     `json:"rounds"`
	Workers              int     `json:"workers"`
	ReferenceRoundsPerS  float64 `json:"reference_rounds_per_sec"`
	EngineRoundsPerS     float64 `json:"engine_rounds_per_sec"`
	Speedup              float64 `json:"speedup"`
	ReferenceAllocsPerOp float64 `json:"reference_allocs_per_run"`
	EngineAllocsPerOp    float64 `json:"engine_allocs_per_run"`
}

type wireBenchFile struct {
	GeneratedBy   string `json:"generated_by"`
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"num_cpu"`
	Workload      string `json:"workload"`
	Note          string `json:"note"`
	BoxedBaseline any    `json:"boxed_engine_baseline"`
	SteadyAllocs  []struct {
		Workers        int     `json:"workers"`
		AllocsPerRound float64 `json:"allocs_per_steady_round"`
	} `json:"steady_state_flood_path_n1024"`
	Results []wireBenchResult `json:"results"`
}

// TestWriteWireBench regenerates BENCH_wire.json. It is too slow for the
// default test run, so it is gated:
//
//	QCONGEST_BENCH_WIRE=1 go test -run TestWriteWireBench -timeout 30m
func TestWriteWireBench(t *testing.T) {
	if os.Getenv("QCONGEST_BENCH_WIRE") == "" {
		t.Skip("set QCONGEST_BENCH_WIRE=1 to measure and write BENCH_wire.json")
	}
	out := wireBenchFile{
		GeneratedBy: "QCONGEST_BENCH_WIRE=1 go test -run TestWriteWireBench",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workload:    "max-id leader election flood (congest.LeaderElectNode), rounds/sec + allocs/run",
		Note: "All messages are wire-encoded; Metrics.Bits and bandwidth checks derive from encoded " +
			"lengths. boxed_engine_baseline = the PR 1 boxed-payload engine on this machine just " +
			"before the refactor (see also BENCH_engine.json for its full throughput table). " +
			"steady_state_flood tracks allocations added per steady-state round (target: 0). " +
			"speedup compares Run (workers=NumCPU) against RunReference, which now shares the " +
			"wire encoder and recycled buffers — on a 1-CPU host the two coincide and the " +
			"column reads ~1.0; the multi-worker scaling story is BENCH_engine.json's.",
		BoxedBaseline: wireBaseline,
	}
	g1024 := engineBenchGraph("path", 1024)
	steadyWorkers := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		steadyWorkers = append(steadyWorkers, n)
	}
	for _, k := range steadyWorkers {
		allocs := steadyAllocsPerRound(t, g1024, k)
		out.SteadyAllocs = append(out.SteadyAllocs, struct {
			Workers        int     `json:"workers"`
			AllocsPerRound float64 `json:"allocs_per_steady_round"`
		}{Workers: k, AllocsPerRound: allocs})
		t.Logf("steady-state flood path/n=1024 workers=%d: %.3f allocs/round", k, allocs)
	}
	for _, kind := range []string{"path", "random", "smallworld"} {
		for _, n := range []int{256, 1024, 4096} {
			g := engineBenchGraph(kind, n)
			rounds, refRPS := measureEngine(t, g, 1, (*congest.Network).RunReference)
			_, engRPS := measureEngine(t, g, runtime.NumCPU(), (*congest.Network).Run)
			refAllocs := testing.AllocsPerRun(1, func() {
				if _, err := runEngineWorkload(g, 1, (*congest.Network).RunReference); err != nil {
					t.Fatal(err)
				}
			})
			engAllocs := testing.AllocsPerRun(1, func() {
				if _, err := runEngineWorkload(g, runtime.NumCPU(), (*congest.Network).Run); err != nil {
					t.Fatal(err)
				}
			})
			res := wireBenchResult{
				Graph: kind, N: n, Rounds: rounds, Workers: runtime.NumCPU(),
				ReferenceRoundsPerS: refRPS, EngineRoundsPerS: engRPS, Speedup: engRPS / refRPS,
				ReferenceAllocsPerOp: refAllocs, EngineAllocsPerOp: engAllocs,
			}
			out.Results = append(out.Results, res)
			t.Logf("%-10s n=%-5d seq=%.0f r/s engine=%.0f r/s speedup=%.2fx allocs ref=%.0f eng=%.0f",
				kind, n, refRPS, engRPS, res.Speedup, refAllocs, engAllocs)
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_wire.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_wire.json")
}

// --- Session benchmark: BENCH_session.json. ---
//
// The session layer builds the network once and re-runs it per Evaluation
// (Reset+Run) instead of calling NewNetwork per phase per eval. This
// benchmark records the effect on the paper's hot loop — the Figure 2
// Evaluation that every Grover iteration executes — and on a full
// ExactDiameter run. The fresh-network per-eval path (TokenWalk +
// EccentricitiesOf) still exists and is measured live; the full-run
// fresh-network numbers are frozen in sessionBaseline because the
// algorithm itself now runs on sessions.

// sessionBaseline is the fresh-network full-run cost measured immediately
// before the session layer landed, on this machine (workers=1):
// core.ExactDiameter on path/128, one run.
var sessionBaseline = struct {
	Workload     string  `json:"workload"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	WallSeconds  float64 `json:"wall_seconds"`
}{
	Workload:     "core.ExactDiameter path/128 seed=1 workers=1 (fresh NewNetwork per phase per eval)",
	AllocsPerRun: 157200,
	WallSeconds:  0.67,
}

// sessionEvalCost measures allocations per Evaluation and evaluations per
// second over `evals` Figure 2 evaluations executed by eval.
func sessionEvalCost(t *testing.T, n, evals int, eval func(u0 int)) (allocsPerEval, evalsPerSec float64) {
	t.Helper()
	allocsPerEval = testing.AllocsPerRun(2, func() {
		for i := 0; i < evals; i++ {
			eval((i * 131) % n)
		}
	}) / float64(evals)
	start := time.Now()
	for i := 0; i < evals; i++ {
		eval((i*131 + 7) % n)
	}
	return allocsPerEval, float64(evals) / time.Since(start).Seconds()
}

type sessionBenchFile struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	Workload    string `json:"workload"`
	Note        string `json:"note"`
	Eval        struct {
		Graph            string  `json:"graph"`
		N                int     `json:"n"`
		Evals            int     `json:"evals_measured"`
		FreshAllocsPerEv float64 `json:"fresh_allocs_per_eval"`
		FreshEvalsPerSec float64 `json:"fresh_evals_per_sec"`
		SessAllocsPerEv  float64 `json:"session_allocs_per_eval"`
		SessEvalsPerSec  float64 `json:"session_evals_per_sec"`
		AllocReduction   float64 `json:"alloc_reduction_factor"`
	} `json:"exact_diameter_evaluation_path_n1024"`
	FullRun struct {
		FreshBaseline any     `json:"fresh_network_baseline_frozen"`
		AllocsPerRun  float64 `json:"session_allocs_per_run"`
		WallSeconds   float64 `json:"session_wall_seconds"`
		Rounds        int     `json:"rounds"`
		Diameter      int     `json:"diameter"`
	} `json:"exact_diameter_full_run_path_n128"`
}

// TestWriteSessionBench regenerates BENCH_session.json. It is too slow for
// the default test run, so it is gated:
//
//	QCONGEST_BENCH_SESSION=1 go test -run TestWriteSessionBench -timeout 30m
func TestWriteSessionBench(t *testing.T) {
	if os.Getenv("QCONGEST_BENCH_SESSION") == "" {
		t.Skip("set QCONGEST_BENCH_SESSION=1 to measure and write BENCH_session.json")
	}
	out := sessionBenchFile{
		GeneratedBy: "QCONGEST_BENCH_SESSION=1 go test -run TestWriteSessionBench",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workload: "Figure 2 Evaluation (2d-step walk + 6d+2 wave + max convergecast) per eval, " +
			"and one full core.ExactDiameter run",
		Note: "fresh = a NewNetwork per phase per Evaluation (TokenWalk + EccentricitiesOf, still " +
			"measured live); session = WalkSession/EccSession built once, Reset+Run per Evaluation. " +
			"Outputs are bit-identical (TestSessionReuseBitIdentical); only setup cost differs. The " +
			"full-run fresh baseline is frozen above (sessionBaseline) because ExactDiameter itself " +
			"now runs on sessions. workers=1 throughout: this isolates setup amortization from " +
			"round-level parallelism (BENCH_engine.json's story).",
	}

	// Per-eval costs on path/1024.
	g := Path(1024)
	topo, err := NewCongestTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := congest.PreprocessOn(topo, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	d := info.D
	const evals = 4
	freshAllocs, freshRate := sessionEvalCost(t, g.N(), evals, func(u0 int) {
		tau, _, err := congest.TokenWalk(g, info, info.Children, u0, 2*d, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := congest.EccentricitiesOf(g, info, tau, 6*d+2, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	})
	walk := congest.NewWalkSession(topo, info, info.Children, 2*d, WithWorkers(1))
	defer walk.Close()
	ecc := congest.NewEccSession(topo, info, 6*d+2, WithWorkers(1))
	defer ecc.Close()
	warm := func(u0 int) {
		tau, _, err := walk.Eval(u0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ecc.Eval(tau); err != nil {
			t.Fatal(err)
		}
	}
	warm(1) // engines built, buffers grown
	sessAllocs, sessRate := sessionEvalCost(t, g.N(), evals, warm)
	ev := &out.Eval
	ev.Graph, ev.N, ev.Evals = "path", g.N(), evals
	ev.FreshAllocsPerEv, ev.FreshEvalsPerSec = freshAllocs, freshRate
	ev.SessAllocsPerEv, ev.SessEvalsPerSec = sessAllocs, sessRate
	if sessAllocs > 0 {
		ev.AllocReduction = freshAllocs / sessAllocs
	}
	t.Logf("eval path/1024: fresh %.0f allocs/eval %.2f evals/s; session %.1f allocs/eval %.2f evals/s (%.0fx fewer allocs)",
		freshAllocs, freshRate, sessAllocs, sessRate, ev.AllocReduction)

	// Full ExactDiameter on path/128, sessions (current implementation) vs
	// the frozen fresh baseline.
	g128 := Path(128)
	var res QuantumResult
	runAllocs := testing.AllocsPerRun(1, func() {
		r, err := QuantumExactDiameter(g128, QuantumOptions{Seed: 1, Parallel: 1, Engine: []EngineOption{WithWorkers(1)}})
		if err != nil {
			t.Fatal(err)
		}
		res = r
	})
	start := time.Now()
	if _, err := QuantumExactDiameter(g128, QuantumOptions{Seed: 1, Parallel: 1, Engine: []EngineOption{WithWorkers(1)}}); err != nil {
		t.Fatal(err)
	}
	out.FullRun.FreshBaseline = sessionBaseline
	out.FullRun.AllocsPerRun = runAllocs
	out.FullRun.WallSeconds = time.Since(start).Seconds()
	out.FullRun.Rounds = res.Rounds
	out.FullRun.Diameter = res.Diameter
	t.Logf("full run path/128: session %.0f allocs/run %.2fs (frozen fresh baseline: %.0f allocs/run %.2fs)",
		runAllocs, out.FullRun.WallSeconds, sessionBaseline.AllocsPerRun, sessionBaseline.WallSeconds)

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_session.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_session.json")
}

// BenchmarkEvalSession is the allocation canary for the session layer: one
// warm Figure 2 Evaluation per iteration. Run with -benchmem; allocs/op
// regressing from single digits means a session stopped recycling state.
func BenchmarkEvalSession(b *testing.B) {
	g := Path(256)
	topo, err := NewCongestTopology(g)
	if err != nil {
		b.Fatal(err)
	}
	info, _, err := congest.PreprocessOn(topo, WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	walk := congest.NewWalkSession(topo, info, info.Children, 2*info.D, WithWorkers(1))
	defer walk.Close()
	ecc := congest.NewEccSession(topo, info, 6*info.D+2, WithWorkers(1))
	defer ecc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tau, _, err := walk.Eval(i % g.N())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ecc.Eval(tau); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string { return "n=" + itoa(n) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Distance-parameter suite benchmark: BENCH_suite.json. ---
//
// The suite generalizes the Figure 2 Evaluation from "one number (the
// diameter)" to radius, per-vertex eccentricities and weighted parameters;
// its hot loop is the same Evaluation the session layer amortizes. This
// benchmark records what session batching buys the Eccentricities workload:
// per-Evaluation cost with fresh networks vs reused sessions on path/1024,
// and a full Eccentricities vector sequential vs Pool-batched.

// BenchmarkEccSuite is the CI allocation canary for the suite: one full
// quantum Eccentricities vector (one warm Evaluation per vertex on reused
// sessions) per iteration.
func BenchmarkEccSuite(b *testing.B) {
	g := Path(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Eccentricities(g, QuantumOptions{Seed: 1, Parallel: 1, Engine: []EngineOption{WithWorkers(1)}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Ecc) != g.N() {
			b.Fatalf("ecc vector length %d", len(res.Ecc))
		}
	}
}

type suiteBenchFile struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	Workload    string `json:"workload"`
	Note        string `json:"note"`
	Eval        struct {
		Graph            string  `json:"graph"`
		N                int     `json:"n"`
		Evals            int     `json:"evals_measured"`
		FreshAllocsPerEv float64 `json:"fresh_allocs_per_eval"`
		FreshEvalsPerSec float64 `json:"fresh_evals_per_sec"`
		SessAllocsPerEv  float64 `json:"session_allocs_per_eval"`
		SessEvalsPerSec  float64 `json:"session_evals_per_sec"`
		AllocReduction   float64 `json:"alloc_reduction_factor"`
	} `json:"eccentricity_evaluation_path_n1024"`
	FullVector struct {
		Graph               string  `json:"graph"`
		N                   int     `json:"n"`
		Rounds              int     `json:"rounds"`
		SeqAllocsPerRun     float64 `json:"sequential_allocs_per_run"`
		SeqWallSeconds      float64 `json:"sequential_wall_seconds"`
		BatchedAllocsPerRun float64 `json:"batched_allocs_per_run"`
		BatchedWallSeconds  float64 `json:"batched_wall_seconds"`
		BatchWorkers        int     `json:"batch_workers"`
	} `json:"eccentricities_vector_path_n256"`
}

// TestWriteSuiteBench regenerates BENCH_suite.json. It is too slow for the
// default test run, so it is gated:
//
//	QCONGEST_BENCH_SUITE=1 go test -run TestWriteSuiteBench -timeout 30m
func TestWriteSuiteBench(t *testing.T) {
	if os.Getenv("QCONGEST_BENCH_SUITE") == "" {
		t.Skip("set QCONGEST_BENCH_SUITE=1 to measure and write BENCH_suite.json")
	}
	out := suiteBenchFile{
		GeneratedBy: "QCONGEST_BENCH_SUITE=1 go test -run TestWriteSuiteBench",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workload: "single-vertex eccentricity Evaluation (2d+1 wave + max convergecast) per eval, " +
			"and one full core.Eccentricities vector",
		Note: "fresh = a new network per phase per Evaluation (congest.EccentricitiesOf); session = " +
			"one congest.EccSession Reset+Run per Evaluation — the batching core.Eccentricities uses. " +
			"Values are bit-identical either way; only setup cost differs. The full-vector rows compare " +
			"Options.Parallel=1 against a Pool of NumCPU cloned sessions (identical output, " +
			"TestQuantumSuiteMatchesClassicalOracle); on a 1-CPU host the two coincide and only the " +
			"per-eval session-vs-fresh comparison carries information.",
	}

	// Per-eval costs on path/1024: the Section 3.1 Evaluation that Radius
	// and Eccentricities run per vertex.
	g := Path(1024)
	topo, err := NewCongestTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := congest.PreprocessOn(topo, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	d := info.D
	tau := make([]int, g.N())
	setTau := func(u0 int) {
		for i := range tau {
			tau[i] = -1
		}
		tau[u0] = 0
	}
	const evals = 4
	freshAllocs, freshRate := sessionEvalCost(t, g.N(), evals, func(u0 int) {
		setTau(u0)
		if _, _, err := congest.EccentricitiesOf(g, info, tau, 2*d+1, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	})
	ecc := congest.NewEccSession(topo, info, 2*d+1, WithWorkers(1))
	defer ecc.Close()
	warm := func(u0 int) {
		setTau(u0)
		if _, _, err := ecc.Eval(tau); err != nil {
			t.Fatal(err)
		}
	}
	warm(1)
	sessAllocs, sessRate := sessionEvalCost(t, g.N(), evals, warm)
	ev := &out.Eval
	ev.Graph, ev.N, ev.Evals = "path", g.N(), evals
	ev.FreshAllocsPerEv, ev.FreshEvalsPerSec = freshAllocs, freshRate
	ev.SessAllocsPerEv, ev.SessEvalsPerSec = sessAllocs, sessRate
	if sessAllocs > 0 {
		ev.AllocReduction = freshAllocs / sessAllocs
	}
	t.Logf("ecc eval path/1024: fresh %.0f allocs/eval %.2f evals/s; session %.1f allocs/eval %.2f evals/s (%.0fx fewer allocs)",
		freshAllocs, freshRate, sessAllocs, sessRate, ev.AllocReduction)

	// Full eccentricity vector on path/256, sequential vs batched sessions.
	g256 := Path(256)
	var res EccentricitiesResult
	seqAllocs := testing.AllocsPerRun(1, func() {
		r, err := Eccentricities(g256, QuantumOptions{Seed: 1, Parallel: 1, Engine: []EngineOption{WithWorkers(1)}})
		if err != nil {
			t.Fatal(err)
		}
		res = r
	})
	start := time.Now()
	if _, err := Eccentricities(g256, QuantumOptions{Seed: 1, Parallel: 1, Engine: []EngineOption{WithWorkers(1)}}); err != nil {
		t.Fatal(err)
	}
	seqWall := time.Since(start).Seconds()
	batchWorkers := runtime.NumCPU()
	batchedAllocs := testing.AllocsPerRun(1, func() {
		r, err := Eccentricities(g256, QuantumOptions{Seed: 1, Parallel: batchWorkers, Engine: []EngineOption{WithWorkers(1)}})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Ecc) != len(res.Ecc) {
			t.Fatal("batched vector length differs")
		}
	})
	start = time.Now()
	if _, err := Eccentricities(g256, QuantumOptions{Seed: 1, Parallel: batchWorkers, Engine: []EngineOption{WithWorkers(1)}}); err != nil {
		t.Fatal(err)
	}
	fv := &out.FullVector
	fv.Graph, fv.N, fv.Rounds = "path", g256.N(), res.Rounds
	fv.SeqAllocsPerRun, fv.SeqWallSeconds = seqAllocs, seqWall
	fv.BatchedAllocsPerRun, fv.BatchedWallSeconds = batchedAllocs, time.Since(start).Seconds()
	fv.BatchWorkers = batchWorkers
	t.Logf("full vector path/256: sequential %.0f allocs %.2fs; batched(%d) %.0f allocs %.2fs",
		seqAllocs, seqWall, batchWorkers, batchedAllocs, fv.BatchedWallSeconds)

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_suite.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_suite.json")
}

// --- Scheduler benchmark: frontier round execution. BENCH_sched.json. ---
//
// The workload is the Figure 2 token walk: per round exactly one vertex
// holds the token, so an every-vertex engine's per-round cost is Theta(n)
// (Send/Receive for all n vertices plus the O(n) quiescence scan) while the
// frontier scheduler executes only the holder — per-round cost O(1). This
// is the purest expression of the frontier win; flood-style workloads whose
// frontier is the whole graph (leader election) gain nothing and lose
// nothing (BENCH_engine.json covers those). workers=1 isolates scheduling
// from worker sharding. The every-vertex side of the comparison is the
// frozen dense-scheduler measurement below.

// schedBenchGraph builds one of the benchmark families.
func schedBenchGraph(kind string, n int) *Graph {
	switch kind {
	case "path":
		return Path(n)
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return Grid(side, side)
	case "tree":
		return CompleteBinaryTree(n)
	default:
		panic("unknown scheduler benchmark graph " + kind)
	}
}

// newSchedWalk prepares a reusable walk-session workload. The BFS tree the
// walk routes on comes from the sequential oracle (graph.NewBFSTree, which
// coincides with the distributed construction by the canonical-parent
// convention) — running the distributed preprocessing here would dominate
// setup at the largest sizes (leader election on a 256k path is a Θ(n²)
// flood) without touching what this benchmark measures, the engine's cost
// per walk round.
func newSchedWalk(g *Graph, steps int) (*congest.WalkSession, error) {
	topo, err := NewCongestTopology(g)
	if err != nil {
		return nil, err
	}
	tree, err := graph.NewBFSTree(g, 0)
	if err != nil {
		return nil, err
	}
	info := &congest.PreInfo{
		Leader:   0,
		Parent:   tree.Parent,
		Depth:    tree.Depth,
		Children: tree.Child,
		D:        tree.Height(),
	}
	return congest.NewWalkSession(topo, info, info.Children, steps, WithWorkers(1)), nil
}

func BenchmarkScheduler(b *testing.B) {
	cases := []struct {
		name  string
		g     *Graph
		steps int
	}{
		// Full Euler tour at small n: the acceptance workload, compared
		// against the frozen dense baseline in BENCH_sched.json.
		{"path/4096", Path(4096), 2 * (4096 - 1)},
		// Bitset-frontier row at 256k: this is the scale where the bitset
		// representation separates from the old sorted-slice frontier;
		// compare rounds/sec against the frozen slice baseline in
		// BENCH_sched.json.
		{"path/262144", Path(1 << 18), 4096},
	}
	for _, tc := range cases {
		n := tc.g.N()
		walk, err := newSchedWalk(tc.g, tc.steps)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("walk/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			totalRounds := 0
			for i := 0; i < b.N; i++ {
				_, m, err := walk.Eval(i * 17 % n)
				if err != nil {
					b.Fatal(err)
				}
				totalRounds += m.Rounds
			}
			b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
		})
		walk.Close()
	}
}

// schedBenchRow is one row of BENCH_sched.json. Only the frozen dense
// baseline carries a dense rate; the acceptance row's speedup divides by
// it.
type schedBenchRow struct {
	Graph              string  `json:"graph"`
	N                  int     `json:"n"`
	Steps              int     `json:"walk_steps"`
	DenseRoundsPerS    float64 `json:"dense_rounds_per_sec,omitempty"`
	FrontierRoundsPerS float64 `json:"frontier_rounds_per_sec,omitempty"`
	Speedup            float64 `json:"speedup_vs_frozen_dense,omitempty"`
}

type schedBenchFile struct {
	GeneratedBy      string          `json:"generated_by"`
	GoVersion        string          `json:"go_version"`
	NumCPU           int             `json:"num_cpu"`
	Workload         string          `json:"workload"`
	Note             string          `json:"note"`
	DenseBaseline    schedBenchRow   `json:"dense_baseline_frozen"`
	SliceBaselineAcc schedBenchRow   `json:"slice_frontier_baseline_acceptance"`
	SliceBaseline    []schedBenchRow `json:"slice_frontier_baseline_256k"`
	Acceptance       schedBenchRow   `json:"acceptance_path4096"`
	Results          []schedBenchRow `json:"results"`
}

// schedDenseBaseline freezes the dense-scheduler measurement of the
// acceptance workload (path/4096 full-tour walk, workers=1) at the time
// the frontier scheduler landed: the fixed denominator of the acceptance
// speedup. The engine no longer has a dense path to re-measure.
var schedDenseBaseline = schedBenchRow{
	Graph: "path", N: 4096, Steps: 8190,
	DenseRoundsPerS: 13200, // ~620 ms for the 8190-round tour
}

// schedSliceBaseline* freeze the previous frontier engine — the sorted
// []int32 frontier slice with a single global wake heap — measured on this
// machine the day the bitset frontier landed (FrontierRoundsPerS holds the
// slice engine's number; the dense column is left zero because the dense
// rows at 256k take minutes and are frozen separately above). They are the
// denominators the regeneration test holds the bitset engine against, so
// the speedup claim survives future regenerations on the same class of
// machine even though the slice engine itself is gone.
var (
	schedSliceBaselineAcc = schedBenchRow{
		Graph: "path", N: 4096, Steps: 8190,
		FrontierRoundsPerS: 2297303,
	}
	schedSliceBaseline256k = []schedBenchRow{
		{Graph: "path", N: 1 << 18, Steps: 4096, FrontierRoundsPerS: 54140},
		{Graph: "grid", N: 262144, Steps: 4096, FrontierRoundsPerS: 53301},
		{Graph: "tree", N: 1 << 18, Steps: 4096, FrontierRoundsPerS: 61529},
	}
)

// measureSchedWalk reports rounds/sec of repeated walk Evaluations.
func measureSchedWalk(t *testing.T, walk *congest.WalkSession, n int) float64 {
	t.Helper()
	const floor = 300 * time.Millisecond
	var elapsed time.Duration
	total := 0
	if _, _, err := walk.Eval(1); err != nil { // warm the engine
		t.Fatal(err)
	}
	for reps := 0; (elapsed < floor && reps < 256) || reps < 1; reps++ {
		start := time.Now()
		_, m, err := walk.Eval(reps * 17 % n)
		elapsed += time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		total += m.Rounds
	}
	return float64(total) / elapsed.Seconds()
}

// TestWriteSchedBench regenerates BENCH_sched.json (and the frontier table
// of EXPERIMENTS.md). It times, so it is gated out of the default run:
//
//	QCONGEST_BENCH_SCHED=1 go test -run TestWriteSchedBench -timeout 60m
func TestWriteSchedBench(t *testing.T) {
	if os.Getenv("QCONGEST_BENCH_SCHED") == "" {
		t.Skip("set QCONGEST_BENCH_SCHED=1 to measure and write BENCH_sched.json")
	}
	out := schedBenchFile{
		GeneratedBy: "QCONGEST_BENCH_SCHED=1 go test -run TestWriteSchedBench",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workload:    "Figure 2 token walk on a reused WalkSession, rounds/sec, workers=1",
		Note: "frontier: only the token holder (plus the final timer round) executes each round; " +
			"outputs and Metrics are bit-identical to RunReference (TestSchedulerEquivalenceSuite). " +
			"dense_baseline_frozen is the removed every-vertex dense scheduler, measured when the " +
			"frontier scheduler landed — the fixed denominator of the acceptance speedup. The table " +
			"rows use a fixed 4096-step walk window so rounds/sec is comparable across n; the " +
			"acceptance row is the full path/4096 Euler tour (8190 steps). The " +
			"slice_frontier_baseline_* blocks freeze the previous sorted-slice frontier " +
			"engine (frontier_rounds_per_sec column) as the bitset engine's denominator.",
		DenseBaseline:    schedDenseBaseline,
		SliceBaselineAcc: schedSliceBaselineAcc,
		SliceBaseline:    schedSliceBaseline256k,
	}

	measure := func(g *Graph, steps int) float64 {
		w, err := newSchedWalk(g, steps)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		return measureSchedWalk(t, w, g.N())
	}

	// Acceptance workload: path/4096, full tour, against the frozen dense
	// rate.
	gAcc := Path(4096)
	accF := measure(gAcc, 2*(gAcc.N()-1))
	accD := schedDenseBaseline.DenseRoundsPerS
	out.Acceptance = schedBenchRow{
		Graph: "path", N: gAcc.N(), Steps: 2 * (gAcc.N() - 1),
		FrontierRoundsPerS: accF, Speedup: accF / accD,
	}
	if out.Acceptance.Speedup < 3 {
		t.Errorf("acceptance: frontier %.0f r/s vs frozen dense %.0f r/s = %.2fx, want >= 3x",
			accF, accD, out.Acceptance.Speedup)
	}
	t.Logf("acceptance path/4096 tour: frontier %.0f r/s, %.1fx the frozen dense %.0f r/s",
		accF, out.Acceptance.Speedup, accD)

	// EXPERIMENTS.md table: fixed 4096-step walk across families and sizes.
	const steps = 4096
	sliceAt256k := map[string]float64{}
	for _, r := range schedSliceBaseline256k {
		sliceAt256k[r.Graph] = r.FrontierRoundsPerS
	}
	bestVsSlice := 0.0
	for _, kind := range []string{"path", "grid", "tree"} {
		for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
			g := schedBenchGraph(kind, n)
			f := measure(g, steps)
			out.Results = append(out.Results, schedBenchRow{Graph: kind, N: g.N(), Steps: steps, FrontierRoundsPerS: f})
			t.Logf("%-5s n=%-7d frontier=%10.0f r/s", kind, g.N(), f)
			if n == 1<<18 {
				ratio := f / sliceAt256k[kind]
				t.Logf("%-5s n=%-7d bitset vs frozen slice frontier: %.2fx", kind, g.N(), ratio)
				if ratio > bestVsSlice {
					bestVsSlice = ratio
				}
			}
		}
	}
	// The bitset frontier must beat the frozen slice engine by >= 2x on at
	// least one n >= 256k row — the scale regime this representation exists
	// for.
	if bestVsSlice < 2 {
		t.Errorf("best 256k bitset-vs-slice ratio = %.2fx, want >= 2x on at least one row", bestVsSlice)
	}

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sched.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_sched.json")
}

// --- Solo Evaluation throughput: BENCH_batch.json. ---
//
// The hot Evaluation of Eccentricities — the single-initiator wave + max
// convergecast — on a reused EccSession on path/4096, workers=1, measured
// in evals/sec against a frozen solo rate.

// newBatchEccInfo prepares the batch benchmark's topology and BFS tree from
// the sequential oracle (same rationale as newSchedWalk: distributed
// preprocessing on a long path would dominate setup without touching what
// the benchmark measures).
func newBatchEccInfo(g *Graph) (*CongestTopology, *congest.PreInfo, error) {
	topo, err := NewCongestTopology(g)
	if err != nil {
		return nil, nil, err
	}
	tree, err := graph.NewBFSTree(g, 0)
	if err != nil {
		return nil, nil, err
	}
	return topo, &congest.PreInfo{
		Leader:   0,
		Parent:   tree.Parent,
		Depth:    tree.Depth,
		Children: tree.Child,
		D:        tree.Height(),
	}, nil
}

// soloEccEvaluator returns a closure running one eccentricity Evaluation on
// a solo EccSession plus its teardown. Each call advances the initiator to
// the next vertex, the order query.EvalAll walks the identity domain.
func soloEccEvaluator(topo *CongestTopology, info *congest.PreInfo) (run func() error, close func()) {
	n := topo.N()
	ecc := congest.NewEccSession(topo, info, 2*info.D+1, WithWorkers(1))
	tau := make([]int, n)
	for i := range tau {
		tau[i] = -1
	}
	last := -1
	next := 1
	return func() error {
		if last >= 0 {
			tau[last] = -1
		}
		tau[next], last = 0, next
		next = (next + 1) % n
		_, _, err := ecc.Eval(tau)
		return err
	}, ecc.Close
}

// batchSoloBaseline freezes the solo measurement of the acceptance
// workload, on this machine, so regenerations of BENCH_batch.json keep the
// original denominator even as the solo path evolves.
var batchSoloBaseline = struct {
	Workload    string  `json:"workload"`
	EvalsPerSec float64 `json:"evals_per_sec"`
}{
	Workload:    "single-initiator eccentricity Evaluation (2d+1 wave + max convergecast) on path/4096, solo EccSession, workers=1, frontier scheduler",
	EvalsPerSec: 460, // best of 3 x 1.5s when the frozen baseline was taken
}

// batchBenchRow is one row of BENCH_batch.json.
type batchBenchRow struct {
	Graph         string  `json:"graph"`
	N             int     `json:"n"`
	EvalsPerSec   float64 `json:"evals_per_sec"`
	SpeedupVsSolo float64 `json:"speedup_vs_frozen_solo"`
	AllocsPerEval float64 `json:"allocs_per_eval"`
}

type batchBenchFile struct {
	GeneratedBy  string          `json:"generated_by"`
	GoVersion    string          `json:"go_version"`
	NumCPU       int             `json:"num_cpu"`
	Workload     string          `json:"workload"`
	Note         string          `json:"note"`
	SoloBaseline any             `json:"solo_baseline_frozen"`
	Results      []batchBenchRow `json:"results"`
}

// measureSoloEcc reports evals/sec of repeated Evaluations over a
// wall-clock floor.
func measureSoloEcc(t *testing.T, run func() error) float64 {
	t.Helper()
	const floor = 500 * time.Millisecond
	if err := run(); err != nil { // warm
		t.Fatal(err)
	}
	var elapsed time.Duration
	evals := 0
	for (elapsed < floor && evals < 4096) || evals < 1 {
		start := time.Now()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		elapsed += time.Since(start)
		evals++
	}
	return float64(evals) / elapsed.Seconds()
}

// TestWriteBatchBench regenerates BENCH_batch.json: the solo EccSession
// row against the frozen solo baseline, which must hold at least half of
// it. It times, so it is gated out of the default run:
//
//	QCONGEST_BENCH_BATCH=1 go test -run TestWriteBatchBench -timeout 30m
func TestWriteBatchBench(t *testing.T) {
	if os.Getenv("QCONGEST_BENCH_BATCH") == "" {
		t.Skip("set QCONGEST_BENCH_BATCH=1 to measure and write BENCH_batch.json")
	}
	out := batchBenchFile{
		GeneratedBy: "QCONGEST_BENCH_BATCH=1 go test -run TestWriteBatchBench",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workload:    "single-initiator eccentricity Evaluation (2d+1 wave + max convergecast) on path/4096, workers=1",
		Note: "solo congest.EccSession (Reset+Run per Evaluation), consecutive initiators. " +
			"solo_baseline_frozen is the fixed denominator of the speedup column.",
		SoloBaseline: batchSoloBaseline,
	}
	g := Path(4096)
	topo, info, err := newBatchEccInfo(g)
	if err != nil {
		t.Fatal(err)
	}
	run, closeFn := soloEccEvaluator(topo, info)
	rate := measureSoloEcc(t, run)
	allocs := testing.AllocsPerRun(5, func() {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	})
	closeFn()
	row := batchBenchRow{
		Graph: "path", N: g.N(), EvalsPerSec: rate,
		SpeedupVsSolo: rate / batchSoloBaseline.EvalsPerSec, AllocsPerEval: allocs,
	}
	out.Results = append(out.Results, row)
	t.Logf("solo %9.1f evals/sec  %6.2fx vs frozen solo  %5.1f allocs/eval", rate, row.SpeedupVsSolo, allocs)
	if row.SpeedupVsSolo < 0.5 {
		t.Errorf("acceptance: solo %.1f evals/sec = %.2fx frozen solo baseline %.1f, want >= 0.5x",
			rate, row.SpeedupVsSolo, batchSoloBaseline.EvalsPerSec)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_batch.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_batch.json")
}

// --- Quantum APSP: the skeleton-oracle sweep vs the classical Bellman–Ford
// inner loop (ISSUE 9; EXPERIMENTS.md, "Quantum APSP"). ---

// apspBenchGraph is the shared workload: a sparse weighted Erdős–Rényi
// graph above the S = V cutoff, so the sampled-skeleton (genuinely
// sublinear) code path runs.
func apspBenchGraph(n int) *Graph {
	return WithWeights(RandomConnected(n, 8.0/float64(n), 1), 9, 2)
}

// BenchmarkApsp is the CI canary for the APSP sweep: one full n-source
// sweep per iteration, reporting the measured per-source round cost (the
// domain metric the papers bound by Õ(sqrt(n) + D)).
func BenchmarkApsp(b *testing.B) {
	g := apspBenchGraph(256)
	b.Run("er/n=256", func(b *testing.B) {
		b.ReportAllocs()
		var res ApspResult
		for i := 0; i < b.N; i++ {
			r, err := APSP(g, QuantumOptions{Seed: 1}, nil)
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.ReportMetric(float64(res.EvalRounds), "rounds/eval")
		b.ReportMetric(float64(res.Sources)*float64(b.N)/b.Elapsed().Seconds(), "evals/sec")
	})
}

// apspClassicalBaseline freezes the classical weighted Evaluation cost on
// the acceptance workload at the time quantum APSP landed: the fixed
// (n-1)-round Bellman–Ford relaxation plus the weighted max convergecast,
// measured on er-512. Future regenerations of BENCH_apsp.json keep this
// denominator even as the classical path evolves. Rounds are deterministic,
// so the value is machine-independent.
var apspClassicalBaseline = struct {
	Workload   string `json:"workload"`
	N          int    `json:"n"`
	EvalRounds int    `json:"eval_rounds"`
}{
	Workload:   "classical weighted eccentricity Evaluation ((n-1)-round Bellman–Ford + weighted max convergecast) on er-512, congest.WeightedEccSession",
	N:          512,
	EvalRounds: 516, // measured when quantum APSP landed (deterministic)
}

// apspBenchRow is one row of BENCH_apsp.json.
type apspBenchRow struct {
	Graph             string  `json:"graph"`
	N                 int     `json:"n"`
	EvalRounds        int     `json:"eval_rounds"`
	InitRounds        int     `json:"init_rounds"`
	TotalRounds       int     `json:"total_rounds"`
	EvalsPerSec       float64 `json:"evals_per_sec"`
	RoundsVsClassical float64 `json:"eval_rounds_vs_frozen_classical"`
	ClassicalEvalMeas int     `json:"classical_eval_rounds_measured"`
}

type apspBenchFile struct {
	GeneratedBy       string         `json:"generated_by"`
	GoVersion         string         `json:"go_version"`
	NumCPU            int            `json:"num_cpu"`
	Workload          string         `json:"workload"`
	Note              string         `json:"note"`
	ClassicalBaseline any            `json:"classical_baseline_frozen"`
	Results           []apspBenchRow `json:"results"`
}

// TestWriteApspBench regenerates BENCH_apsp.json and enforces the
// sublinearity acceptance: on er-512 the skeleton-oracle Evaluation must
// cost strictly fewer rounds than the frozen classical Bellman–Ford
// baseline. Too slow for the default run, so it is gated:
//
//	QCONGEST_BENCH_APSP=1 go test -run TestWriteApspBench -timeout 30m
func TestWriteApspBench(t *testing.T) {
	if os.Getenv("QCONGEST_BENCH_APSP") == "" {
		t.Skip("set QCONGEST_BENCH_APSP=1 to measure and write BENCH_apsp.json")
	}
	out := apspBenchFile{
		GeneratedBy: "QCONGEST_BENCH_APSP=1 go test -run TestWriteApspBench",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workload:    "quantum APSP sweep (skeleton distance oracle: H-hop Bellman–Ford + pipelined skeleton relay + weighted max convergecast) on sparse weighted Erdős–Rényi graphs",
		Note: "eval_rounds is the measured per-source Evaluation cost — the papers' Õ(sqrt(n) + D) " +
			"term; init_rounds covers preprocessing (BFS tree, skeleton relaxations, matrix " +
			"distribution), amortized over all n sources. classical_baseline_frozen is the " +
			"(n-1)-round Bellman–Ford Evaluation on er-512, measured when quantum APSP landed — " +
			"the fixed denominator of eval_rounds_vs_frozen_classical. Rounds are deterministic; " +
			"only evals_per_sec is machine-dependent.",
		ClassicalBaseline: apspClassicalBaseline,
	}
	var accepted *apspBenchRow
	for _, n := range []int{256, 512} {
		g := apspBenchGraph(n)
		// The measured classical Evaluation on this instance (recorded per
		// row; the frozen er-512 value is the acceptance denominator).
		topo, err := congest.NewTopology(g)
		if err != nil {
			t.Fatal(err)
		}
		info, _, err := congest.PreprocessOn(topo)
		if err != nil {
			t.Fatal(err)
		}
		ces := congest.NewWeightedEccSession(topo, info)
		_, cm, err := ces.Eval(0)
		ces.Close()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := APSP(g, QuantumOptions{Seed: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		row := apspBenchRow{
			Graph: "er", N: n,
			EvalRounds: res.EvalRounds, InitRounds: res.InitRounds, TotalRounds: res.Rounds,
			EvalsPerSec:       float64(res.Sources) / elapsed.Seconds(),
			RoundsVsClassical: float64(res.EvalRounds) / float64(apspClassicalBaseline.EvalRounds),
			ClassicalEvalMeas: cm.Rounds,
		}
		out.Results = append(out.Results, row)
		t.Logf("n=%-5d eval=%4d rounds (classical here %4d, frozen %d)  init=%6d  %7.1f evals/sec",
			n, row.EvalRounds, cm.Rounds, apspClassicalBaseline.EvalRounds, row.InitRounds, row.EvalsPerSec)
		if n == apspClassicalBaseline.N {
			accepted = &out.Results[len(out.Results)-1]
		}
	}
	if accepted == nil {
		t.Fatal("acceptance row (n=512) missing")
	}
	if accepted.EvalRounds >= apspClassicalBaseline.EvalRounds {
		t.Errorf("acceptance: skeleton Evaluation %d rounds >= frozen classical Bellman–Ford %d on er-512 — not sublinear",
			accepted.EvalRounds, apspClassicalBaseline.EvalRounds)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_apsp.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_apsp.json")
}
