// Command perfbench is the repository's benchmark. It measures the host
// time the simulator spends on the paper's applications (radix sort and
// N-Queens on a 256-node machine, run through each package's Run)
// and the kv request latency of an in-process jm-serve, checks every
// answer, and prints one JSON result line:
//
//	perfbench --workload radix --seed 11 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run with
// library defaults. --trace 1 reports the per-layer split of a traced
// run, the tracing overhead, and a CPU profile folded by package. See
// README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the workloads were chosen with.
const defaultSeed = 11

// workloads are the benchmark's workloads at their measured sizes.
var workloads = map[string]func(runCfg) (report, error){
	"radix":   func(c runCfg) (report, error) { return appWorkload(radixApp(256, 16384), c) },
	"nqueens": func(c runCfg) (report, error) { return appWorkload(nqueensApp(256, 12), c) },
	"serve-kv": func(c runCfg) (report, error) {
		return serveKVWorkload(kvShape{sessions: 8, nodes: 8, keys: 32, batch: 4, clients: 2,
			setups: 9, warmSetups: 2, direct: 32}, c)
	},
}

// runCfg is one invocation's settings.
type runCfg struct {
	seed   int64
	window time.Duration // how long to keep measuring
	trace  bool
	state  string // directory for serve-kv session state
	log    io.Writer
}

func (c runCfg) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "# "+format+"\n", args...)
}

// logSpread prints a sample's size, median and quartiles.
func (c runCfg) logSpread(name string, xs []float64) {
	c.logf("%s: n=%d median=%.6g q1=%.6g q3=%.6g", name, len(xs),
		median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}

// report is what a workload measured.
type report struct {
	scope             scope
	values            map[string]float64
	counters          counters
	attempted, failed int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses flags, measures the workload, and prints the result as the
// last line of out. It returns the process exit code: 0 only when every
// check passed.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	state := fs.String("state", ".bench_build/perfbench/state", "directory for serve-kv session state (on disk)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	c := runCfg{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, state: *state, log: out}
	c.logf("host nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%g trace=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *workload, *seed, *seconds, *trace)

	rep, err := w(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	ctr, _ := json.Marshal(rep.counters)
	c.logf("counters %s", ctr)
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metric{}}
	if res.Correct {
		defs := endToEnd
		if c.trace {
			defs = perLayer
		}
		if res.Metrics, err = fill(defs, rep.scope, rep.values); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			return 1
		}
		for _, d := range defs {
			c.logf("%-28s %14.6g %s", d.name, res.Metrics[d.name].Value, d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d checks failed\n", *workload, rep.failed, rep.attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
