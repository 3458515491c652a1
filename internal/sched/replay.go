package sched

import (
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Recorder wraps a scheduler and logs the delay assigned to every message
// send (keyed by the envelope's global send sequence number, which is
// deterministic for a fixed protocol binary and seed). The log can then
// drive a Replay scheduler, which reproduces the exact interleaving — the
// debugging loop for any execution the fuzzer or the grid flags:
//
//	rec := sched.NewRecorder(inner)
//	... run, observe failure ...
//	replay := sched.NewReplay(rec.Log(), fallbackDelay)
//	... re-run with extra instrumentation, same interleaving ...
//
// The log is a dense slice indexed by send sequence: the simulator allocates
// sequence numbers contiguously from zero, in the order deliveries trigger
// the sends. A zero entry means "no send recorded at that sequence" (timer
// events take sequence numbers but never reach the scheduler, and real
// delays are always >= 1). A run drives its scheduler from a single
// goroutine, so the Recorder is deliberately lock-free; parallel sweeps give
// each run its own Recorder instance, which keeps them race-free.
type Recorder struct {
	inner sim.Scheduler
	log   []sim.Time
}

var _ sim.Scheduler = (*Recorder)(nil)

// NewRecorder wraps inner.
func NewRecorder(inner sim.Scheduler) *Recorder {
	return &Recorder{inner: inner}
}

// Delay implements sim.Scheduler.
func (r *Recorder) Delay(env sim.Envelope, now sim.Time, rng *rand.Rand) sim.Time {
	d := r.inner.Delay(env, now, rng)
	if d < 1 {
		d = 1
	}
	if d > sim.MaxDelayCap {
		d = sim.MaxDelayCap
	}
	for uint64(len(r.log)) <= env.Seq {
		r.log = append(r.log, 0)
	}
	r.log[env.Seq] = d
	return d
}

// Log returns a copy of the recorded delays as a map, for callers that want
// sparse lookup semantics. Unrecorded sequences are absent.
func (r *Recorder) Log() map[uint64]sim.Time {
	out := make(map[uint64]sim.Time, len(r.log))
	for seq, d := range r.log {
		if d != 0 {
			out[uint64(seq)] = d
		}
	}
	return out
}

// Dense returns a copy of the recorded delays as a dense slice indexed by
// send sequence. A zero entry means no delay was recorded for that sequence.
// This is the compact form persisted in incident bundles.
func (r *Recorder) Dense() []sim.Time {
	out := make([]sim.Time, len(r.log))
	copy(out, r.log)
	return out
}

// Replay re-issues recorded delays by send sequence number. Sends beyond
// the recorded log (possible when the re-run diverges, e.g. extra
// instrumentation traffic) get the fallback delay.
type Replay struct {
	log      []sim.Time
	fallback sim.Time
}

var _ sim.Scheduler = (*Replay)(nil)

// NewReplay builds a replay scheduler from a recorded map log.
func NewReplay(log map[uint64]sim.Time, fallback sim.Time) *Replay {
	var max uint64
	for seq := range log {
		if seq >= max {
			max = seq + 1
		}
	}
	dense := make([]sim.Time, max)
	for seq, d := range log {
		dense[seq] = d
	}
	return NewReplayDense(dense, fallback)
}

// NewReplayDense builds a replay scheduler from a dense log indexed by send
// sequence (zero entries mean "unrecorded" and fall back). The slice is
// copied, so the caller may keep mutating its own.
func NewReplayDense(log []sim.Time, fallback sim.Time) *Replay {
	if fallback < 1 {
		fallback = 1
	}
	cp := make([]sim.Time, len(log))
	copy(cp, log)
	return &Replay{log: cp, fallback: fallback}
}

// Delay implements sim.Scheduler.
func (r *Replay) Delay(env sim.Envelope, _ sim.Time, _ *rand.Rand) sim.Time {
	if env.Seq < uint64(len(r.log)) {
		if d := r.log[env.Seq]; d != 0 {
			return d
		}
	}
	return r.fallback
}

// HeavyTail models real wide-area networks: most messages are fast, but a
// Pareto-like tail is very slow. Alpha controls the tail weight (smaller =
// heavier); Base scales the delay unit.
type HeavyTail struct {
	Base  sim.Time
	Alpha float64
	Cap   sim.Time
}

var _ sim.Scheduler = (*HeavyTail)(nil)

// Delay implements sim.Scheduler.
func (h *HeavyTail) Delay(_ sim.Envelope, _ sim.Time, rng *rand.Rand) sim.Time {
	alpha := h.Alpha
	if alpha <= 0 {
		alpha = 1.5
	}
	base := h.Base
	if base < 1 {
		base = 1
	}
	capd := h.Cap
	if capd < base {
		capd = 100 * base
	}
	// Inverse-CDF Pareto sample: base / U^(1/alpha).
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	d := sim.Time(float64(base) * math.Pow(1/u, 1/alpha))
	if d < base {
		d = base
	}
	if d > capd {
		d = capd
	}
	return d
}
