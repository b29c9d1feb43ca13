// Command perfbench is the qcongest benchmark. It runs one named workload
// through the library's public entry points and prints every metric by
// name and unit, checking every output against an independent reference:
//
//	perfbench --workload exact-diameter-er1024 --seed 1 --seconds 38 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced calls. With
// --trace 1 it alternates untraced calls with traced runs, which rebuild
// the computation from public calls and time each as a span, and reports
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any wrong output
// or non-repeating deterministic count exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one named benchmark input family.
type workload struct {
	name  string
	build func(seed int64, tiny bool) instance
}

var workloads = []workload{
	{"exact-diameter-er1024", newExactCase},
	{"apsp-weighted-er384", newApspCase},
	{"bfs-grid-1m", newBFSCase},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// environment is recorded with every result.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workers    int    `json:"engine_workers"`
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// result is the file written for every run.
type result struct {
	Workload   string      `json:"workload"`
	Trace      bool        `json:"trace"`
	Env        environment `json:"env"`
	Attempted  int         `json:"attempted"`
	Failed     int         `json:"failed"`
	FailRatio  float64     `json:"fail_ratio"`
	Mismatches []string    `json:"mismatches,omitempty"`
	CallWalls  []float64   `json:"call_wall_s"`
	Metrics    []metric    `json:"metrics"`
	Spans      []span      `json:"spans,omitempty"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Int("seconds", 38, "measurement budget in seconds (at least one call always runs)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	out := fs.String("out", "", "directory for the result file (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *secs < 0 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}

	res, err := runWorkload(w, *seed, time.Duration(*secs)*time.Second, *trace == 1, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	report(stdout, res)
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := printSummary(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload measures one workload, at a small size when tiny is set, and
// assembles its result.
func runWorkload(w workload, seed int64, budget time.Duration, trace, tiny bool) (*result, error) {
	inst := w.build(seed, tiny)
	m, err := measure(inst, budget, trace)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name,
		Trace:    trace,
		Env: environment{
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Commit:     commit(),
			Seed:       seed,
			Workers:    inst.workers(),
		},
		Attempted:  m.attempted,
		Failed:     m.failed,
		FailRatio:  ratio(int64(m.failed), int64(m.attempted)),
		Mismatches: m.mismatches,
	}
	for _, s := range m.calls {
		res.CallWalls = append(res.CallWalls, seconds(s.wall))
	}
	switch {
	case trace && len(m.traces) > 0:
		res.Metrics = perLayer(m, inst.size(), inst.workers())
		res.Spans = m.traces[len(m.traces)-1].rec.spans
	case !trace && len(m.calls) > 0:
		res.Metrics = endToEnd(m)
	}
	return res, nil
}

func report(w io.Writer, res *result) {
	e := res.Env
	fmt.Fprintf(w, "workload=%s seed=%d trace=%t go=%s num_cpu=%d gomaxprocs=%d commit=%s engine.workers=%d\n",
		res.Workload, e.Seed, res.Trace, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.Commit, e.Workers)
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%-40s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-40s %16.6f ratio (%d of %d operations failed)\n", "fail_ratio", res.FailRatio, res.Failed, res.Attempted)
	fmt.Fprintf(w, "untraced calls: %d, wall_s each: %.4f\n", len(res.CallWalls), res.CallWalls)
	for _, s := range res.Mismatches {
		fmt.Fprintf(w, "FAIL: %s\n", s)
	}
}

func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Env.Seed, boolInt(res.Trace)))
	return os.WriteFile(path, data, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printSummary(w io.Writer, res *result) error {
	s := summary{
		Correct:   res.Failed == 0 && len(res.Metrics) > 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]jsonValue{},
	}
	for _, m := range res.Metrics {
		s.Metrics[m.Name] = jsonValue{m.Value, m.Unit}
	}
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
