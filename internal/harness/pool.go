package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// This file is the parallel experiment engine: a worker pool that fans
// independent simulation runs across GOMAXPROCS goroutines while keeping
// every observable output — tables, aggregates, error messages — byte-for-
// byte identical to a sequential execution.
//
// Determinism argument. Every run is a pure function of its Spec: the
// simulator's randomness comes from Spec.Seed alone, the scheduler suite is
// stateless (the one stateful scheduler, sched.FIFO, is instantiated
// per-spec), and protocols share no mutable state across runs. Workers pull
// indices from an atomic counter, write results into a preallocated slot
// per index, and all aggregation happens after the barrier in index order —
// so scheduling nondeterminism can never reach an experiment table.
//
// Each run executes on a recycled RunContext (context.go) drawn from a
// sync.Pool, whose per-P caching effectively gives every worker goroutine
// its own warm context: the simulator wheel, party state, and RBC slabs
// are reset — provably equivalent to fresh construction — instead of
// rebuilt, which removes the per-run allocation load (and the cross-worker
// GC pressure that used to scale with Parallelism()).

// parallelism overrides the worker count; 0 means runtime.GOMAXPROCS(0).
// It is read atomically because experiments may run while a test flips it.
var parallelism atomic.Int32

// SetParallelism sets the engine's worker count. 1 forces the sequential
// path (no goroutines at all); 0 restores the default of GOMAXPROCS.
// The determinism tests compare the two settings byte for byte.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// Parallelism reports the engine's current worker count.
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// EventCore reports the retired event-core switch, which is always zero.
//
// Deprecated: the simulator has one event queue.
func EventCore() sim.EventCore { return 0 }

// Batching reports the retired delivery-mode switch, which is always zero.
//
// Deprecated: the simulator has one delivery path.
func Batching() sim.BatchMode { return 0 }

// Sharding reports the retired intra-run shard count, which is always
// zero.
//
// Deprecated: every run executes on one goroutine.
func Sharding() int { return 0 }

// EngineStats aggregates run-level accounting across every engine-executed
// simulation since the last reset. cmd/aabench snapshots it around each
// experiment to report msgs/run and allocs/run in the BENCH_*.json
// trajectory.
type EngineStats struct {
	// Runs counts completed simulation runs.
	Runs int64
	// MessagesSent / MessagesDelivered / BytesSent sum the per-run
	// sim.Stats counters.
	MessagesSent      int64
	MessagesDelivered int64
	BytesSent         int64
	// Mallocs is the process-wide heap-allocation count since the last
	// ResetEngineStats (runtime.MemStats.Mallocs delta). Divided by Runs it
	// tracks the run-context recycling contract: a warm sweep should sit
	// near zero allocations per run. It is process-wide, so concurrent
	// non-engine work (or the table renderer) inflates it slightly.
	Mallocs int64
}

var engineRuns, engineMsgsSent, engineMsgsDelivered, engineBytes atomic.Int64

// engineMallocsBase is the MemStats.Mallocs baseline captured at reset.
var engineMallocsBase atomic.Uint64

func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ResetEngineStats zeroes the cumulative engine counters and re-baselines
// the allocation counter.
func ResetEngineStats() {
	engineRuns.Store(0)
	engineMsgsSent.Store(0)
	engineMsgsDelivered.Store(0)
	engineBytes.Store(0)
	engineMallocsBase.Store(readMallocs())
}

// SnapshotEngineStats reads the cumulative engine counters.
func SnapshotEngineStats() EngineStats {
	return EngineStats{
		Runs:              engineRuns.Load(),
		MessagesSent:      engineMsgsSent.Load(),
		MessagesDelivered: engineMsgsDelivered.Load(),
		BytesSent:         engineBytes.Load(),
		Mallocs:           int64(readMallocs() - engineMallocsBase.Load()),
	}
}

// CountRun credits one completed run to the engine counters. RunAll does
// this for its own runs; a caller that executes specs one at a time
// through Run (the serving layer's attempts) calls it once per run, so
// aabench's msgs/bytes gate covers those runs too.
func CountRun(rep *Report) {
	if rep.Result == nil {
		engineRuns.Add(1)
		return
	}
	countStats(rep.Result.Stats)
}

// countStats credits one completed simulation run to the engine counters.
// Spec-based runs are counted through CountRun; non-Spec experiments that
// drive the simulator directly (the vector extension) call it themselves.
func countStats(stats sim.Stats) {
	engineRuns.Add(1)
	engineMsgsSent.Add(int64(stats.MessagesSent))
	engineMsgsDelivered.Add(int64(stats.MessagesDelivered))
	engineBytes.Add(int64(stats.BytesSent))
}

// mapOrdered evaluates fn(0..n-1) across the worker pool and returns the
// results indexed by input order. With Parallelism() == 1 (or n < 2) it
// degenerates to a plain loop on the calling goroutine. Every index is
// evaluated even when an earlier one fails, and the error reported is
// always the lowest-index one — both properties keep the parallel and
// sequential paths observably identical (a sequential loop would have
// surfaced exactly that error first).
func mapOrdered[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunAll executes every spec on the engine and returns the reports in spec
// order. A spec-level error (bad inputs, fault budget exceeded, ...) aborts
// the batch; protocol-level failures are part of the Report, as with Run.
func RunAll(specs []Spec) ([]*Report, error) {
	return RunAllLabeled(specs, nil)
}

// RunAllLabeled is RunAll with an error-context labeler: when spec i fails,
// label(i) prefixes the error so callers keep the per-run context the old
// inline loops had.
func RunAllLabeled(specs []Spec, label func(i int) string) ([]*Report, error) {
	return mapOrdered(len(specs), func(i int) (*Report, error) {
		rep, err := Run(specs[i])
		if err != nil {
			if label != nil {
				return nil, fmt.Errorf("%s: %w", label(i), err)
			}
			return nil, err
		}
		CountRun(rep)
		return rep, nil
	})
}

// runOutcome pairs a report with its spec-level error for batches where the
// experiment treats a failed Run as data rather than as an abort (the E1
// overload demonstrations intentionally run past the fault bound).
type runOutcome struct {
	rep *Report
	err error
}

// runAllOutcomes executes every spec on the engine, never aborting: each
// slot carries its own (report, error) pair, in spec order.
func runAllOutcomes(specs []Spec) []runOutcome {
	outs, _ := mapOrdered(len(specs), func(i int) (runOutcome, error) {
		rep, err := Run(specs[i])
		if err == nil {
			CountRun(rep)
		}
		return runOutcome{rep: rep, err: err}, nil
	})
	return outs
}
