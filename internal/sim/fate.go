package sim

import "math/rand"

// Fate is the full scheduling decision for one send: the delivery delay
// plus the lossy-network outcomes layered on top of it. The zero value of
// the extension fields means "deliver normally", so a plain Scheduler is
// exactly a FateScheduler whose fates never drop or duplicate.
type Fate struct {
	// Delay is the delivery delay of the (primary) copy, clamped by the
	// simulator to [1, MaxDelayCap] like Scheduler.Delay results.
	Delay Time
	// DupExtra, when > 0, delivers a second copy of the message DupExtra
	// ticks after the primary copy. The duplicate shares the envelope
	// (same Seq, same payload bytes), so receive-side dedup can be tested
	// against honest traffic.
	DupExtra Time
	// Drop suppresses delivery entirely: the send is counted (the sender
	// paid for it) but no event is queued. Dropped sends never feed
	// MaxHonestDelay — eventual delivery is measured on messages that are
	// actually delivered.
	Drop bool
}

// FateScheduler is the lossy-network extension of Scheduler. Schedulers
// that implement it decide, per send, whether the message is dropped or
// duplicated in addition to its delay. The simulator detects the
// interface once per Reset; plain Schedulers run the exact pre-fate code
// path, which is what pins the "axes off ⇒ byte-identical" contract.
//
// Determinism contract: every fate decision must be drawn from the rng
// passed in (the run's seeded scheduler stream) — never from wall clock
// or global state — and implementations must consume rng draws in a
// fixed order per send (innermost base delay first, then each wrapper in
// composition order) so that capture and replay observe identical
// streams.
type FateScheduler interface {
	Scheduler
	// Fate returns the full scheduling decision for the envelope. The
	// rng is the same stream Delay would have drawn from.
	Fate(env Envelope, now Time, rng *rand.Rand) Fate
}

// FateOf evaluates a scheduler's full decision for one send: the Fate
// method when the scheduler implements FateScheduler, a plain delay draw
// otherwise. The returned Delay is pre-clamped to [1, MaxDelayCap] so
// wrapper schedulers can compute arrival times from it directly.
func FateOf(s Scheduler, env Envelope, now Time, rng *rand.Rand) Fate {
	var f Fate
	if fs, ok := s.(FateScheduler); ok {
		f = fs.Fate(env, now, rng)
	} else {
		f.Delay = s.Delay(env, now, rng)
	}
	if f.Delay < 1 {
		f.Delay = 1
	}
	if f.Delay > MaxDelayCap {
		f.Delay = MaxDelayCap
	}
	return f
}
