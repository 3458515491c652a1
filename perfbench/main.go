// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints a report followed, as the last
// line, by a JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). The workloads, the
// layers each one stresses and bypasses, and the predictions that tie
// layer metrics to end-to-end metrics are in DESIGN.md.
//
//	bash perfbench/run.sh --workload sweep-small --seed 1 --seconds 30 --trace 0
//
// run.sh builds this module from the checkout and runs it from the
// repository root; inside perfbench/, `go run .` with the same flags
// works too.
//
// The exit status is non-zero when an output check or the exact-count
// guard fails; the result line then reads "correct": false.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/harness"
)

// e2eMetrics are the end-to-end metrics of the result line: the ones
// every workload defines. Workload-specific metrics appear in the report
// lines above it.
var e2eMetrics = []string{
	"setup_s", "cpu_ms_per_run", "cpu_ns_per_msg", "msgs_per_run", "decided_frac",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for claim re-checks: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *wl) || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in {%s}, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	traced := *traceFlag == 1
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		harness.SetParallelism(runtime.NumCPU())
	}
	if *wl == wlLiveLossy {
		runtime.GOMAXPROCS(liveProcs)
	}
	dg, err := digest(*wl, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d engine_parallelism=%d shards=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), harness.Parallelism(), harness.Sharding(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "workload: %s seed=%d input_digest=%016x seconds=%d trace=%v\n", *wl, *seed, dg, *seconds, traced)

	b, tr, err := measure(*wl, *seed, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printMetrics(stdout, "end-to-end ("+*wl+")", b.e2e)
	names, ms := e2eMetrics, b.e2e
	if traced {
		printMetrics(stdout, "per-layer ("+*wl+")", b.layers)
		fmt.Fprintf(stdout, "== tracing overhead (%s)\n", *wl)
		for _, line := range b.overhead {
			fmt.Fprintln(stdout, "  "+line)
		}
		tr.write(stdout)
		names, ms = nil, b.layers
		for _, lm := range layerMetrics {
			names = append(names, lm.name)
		}
	}
	res := result{Correct: len(b.problems) == 0 && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]resultValue{}}
	for _, name := range names {
		i := slices.IndexFunc(ms, func(m metric) bool { return m.name == name })
		if i < 0 {
			b.problem("metric %s was not measured", name)
			res.Correct = false
			continue
		}
		res.Metrics[name] = resultValue{ms[i].value, ms[i].unit}
	}
	for _, p := range b.problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload's end-to-end phase and, when traced, splits
// the time with a traced phase.
func measure(wl string, seed int64, budget time.Duration, traced bool) (*bench, *tracer, error) {
	b := &bench{}
	tr := &tracer{}
	if traced {
		budget /= 2
	}
	switch wl {
	case wlSweepSmall:
		st, err := measureSim(b, seed, budget)
		if err != nil || !traced {
			return b, tr, err
		}
		err = traceSim(b, seed, st, budget, tr)
		b.fillBypassed()
		return b, tr, err
	case wlServeLossy:
		st, err := measureServe(b, seed, budget)
		if err != nil || !traced {
			return b, tr, err
		}
		err = traceServe(b, st, budget, tr)
		b.fillBypassed()
		return b, tr, err
	default:
		st, err := measureLive(b, seed, budget)
		if err != nil || !traced {
			return b, tr, err
		}
		err = traceLive(b, seed, st, st.runMS, budget, tr)
		b.fillBypassed()
		return b, tr, err
	}
}
