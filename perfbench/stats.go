package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// minTail is the sample-count rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minTail = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is the number of samples strictly above the nearest-rank
// q-quantile's rank.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// percentile returns the q-quantile and whether the sample supports it
// under the minTail rule. The median is always supported.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	return quantile(xs, q), q <= 0.5 || beyond(len(xs), q) >= minTail
}

// highestPercentile returns the highest of p99.9, p99 and p90 that the
// sample supports, or ok=false when none is.
func highestPercentile(xs []float64) (q, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if v, ok := percentile(xs, q); ok {
			return q, v, true
		}
	}
	return 0, math.NaN(), false
}

// metric is one reported number with its unit and the count of samples
// or runs it summarises.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, m := range ms {
		note := ""
		if m.note != "" {
			note = "  " + m.note
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-16s n=%d%s\n", m.name, m.value, m.unit, m.n, note)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// window measures heap allocations and the live heap over a measurement
// phase. sample is called after each timed unit. The live heap is what
// the last garbage collection found reachable, so neither heap figure
// depends on when collections happen to run.
type window struct {
	allocs0     uint64
	peak, final uint64
	ms          []metrics.Sample
}

const (
	mAllocs   = "/gc/heap/allocs:objects"
	mLiveHeap = "/gc/heap/live:bytes"
)

func newWindow() *window {
	w := &window{ms: []metrics.Sample{{Name: mAllocs}, {Name: mLiveHeap}}}
	metrics.Read(w.ms)
	w.allocs0 = w.ms[0].Value.Uint64()
	return w
}

func (w *window) sample() {
	metrics.Read(w.ms)
	w.peak = max(w.peak, w.ms[1].Value.Uint64())
}

// allocs returns the heap allocations since the window opened.
func (w *window) allocs() uint64 {
	metrics.Read(w.ms)
	return w.ms[0].Value.Uint64() - w.allocs0
}

// close collects and records the live heap the phase left behind. Call
// it once the phase's samples are summarised, so that they are garbage.
func (w *window) close() {
	runtime.GC()
	w.sample()
	w.final = w.ms[1].Value.Uint64()
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// cpuNS is the process's CPU time (user + system, all threads). On a
// shared virtual host it excludes the time the host ran something else,
// which wall time does not.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// setupTimes repeats a workload's set-up from a cold state, at least
// setupReps times and for at least setupTime, and returns each
// repetition's wall and process CPU seconds. Two collections empty the
// harness's sync.Pool of run contexts, so every repetition pays the
// warm-up again.
func setupTimes(f func() error) (wall, cpu []float64, err error) {
	for start := time.Now(); until(start, setupTime, len(cpu), setupReps); {
		runtime.GC()
		runtime.GC()
		t0, c0 := time.Now(), cpuNS()
		if err := f(); err != nil {
			return nil, nil, err
		}
		cpu = append(cpu, float64(cpuNS()-c0)/1e9)
		wall = append(wall, time.Since(t0).Seconds())
	}
	return wall, cpu, nil
}

// until reports whether a phase that started at start with the given
// budget should run another unit: always at least minUnits.
func until(start time.Time, budget time.Duration, done, minUnits int) bool {
	return done < minUnits || time.Since(start) < budget
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
