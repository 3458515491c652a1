package sim

// This file is the run loop. It drains one virtual-time tick per PopTick
// and delivers the tick envelope by envelope in (at, Seq) order — the
// asynchronous model's one-message-at-a-time delivery in the order the
// scheduler's delays give. A delivery's sends and timers are scheduled at
// once (Seq assigned, delay drawn), the observer is called inline, and the
// event budget and run completion are checked per event. The golden run
// digests in batch_test.go pin this loop.

// run is the run loop body. budget is the resolved MaxEvents.
func (n *Network) run(budget int) error {
	var err error
	events := 0
	tick := n.tick[:0]
	for n.pendingHonest > 0 {
		if n.queue.Len() == 0 {
			// A pending restart can revive a drained run: a rejoin
			// re-sends, so the stall verdict is only final once no actions
			// remain.
			if n.restartsPending() {
				if err = n.advanceToRestart(); err != nil {
					break
				}
				continue
			}
			err = ErrStalled
			break
		}
		tick = n.queue.PopTick(tick[:0])
		n.now = tick[0].at
		if n.restartsPending() {
			if err = n.fireRestarts(); err != nil {
				break
			}
		}
		if err = n.deliverTick(tick, &events, budget); err != nil {
			break
		}
	}
	n.tick = tick[:0]
	return err
}

// deliverTick delivers one tick envelope by envelope in Seq order. It
// stops at the event that decides the last pending honest party, and
// fails with ErrEventBudget at the event that would exceed the budget.
func (n *Network) deliverTick(tick []event, events *int, budget int) error {
	for i := range tick {
		if n.pendingHonest == 0 {
			return nil
		}
		if *events >= budget {
			return ErrEventBudget
		}
		*events++
		ev := &tick[i]
		if n.crashed[ev.to] {
			continue
		}
		dst := n.parties[ev.to]
		if ev.timer() {
			if th, ok := dst.proc.(TimerHandler); ok {
				th.OnTimer(ev.ref)
			}
			continue
		}
		n.stats.MessagesDelivered++
		dst.proc.Deliver(PartyID(ev.from), n.arena.bytes(ev.ref, ev.size))
		if n.observer != nil {
			n.observer(n.now, n.envelope(ev))
		}
	}
	return nil
}

// envelope builds the Envelope of a queued delivery.
func (n *Network) envelope(ev *event) Envelope {
	return Envelope{
		From: PartyID(ev.from),
		To:   PartyID(ev.to),
		Data: n.arena.bytes(ev.ref, ev.size),
		Sent: ev.sent,
		Seq:  ev.seq,
	}
}

// scheduleSend assigns the next Seq, draws the scheduler decision, and
// queues the send. When the scheduler is a FateScheduler the send can be
// dropped (no event queued) or duplicated (a second event at
// Delay+DupExtra sharing the envelope); a plain Scheduler takes the
// original delay-only path.
func (n *Network) scheduleSend(from, to PartyID, ref uint64, size int32) {
	n.seq++
	// Built field by field, not as a literal: the compiler would build a
	// literal in a temporary and block-copy it (see alloc).
	var ev event
	ev.seq, ev.sent = n.seq, n.now
	ev.from, ev.to = int32(from), int32(to)
	ev.ref, ev.size = ref, size
	if n.fate == nil {
		delay := n.cfg.Scheduler.Delay(n.envelope(&ev), n.now, n.rng)
		if delay < 1 {
			delay = 1
		}
		if delay > MaxDelayCap {
			delay = MaxDelayCap
		}
		if !n.faulty[from] && !n.faulty[to] && delay > n.maxHonestDelay {
			n.maxHonestDelay = delay
		}
		ev.at = n.now + delay
		n.queue.Push(&ev)
		return
	}
	f := FateOf(n.fate, n.envelope(&ev), n.now, n.rng)
	if f.Drop {
		// Dropped sends never feed MaxHonestDelay: round complexity is
		// measured on messages the network actually delivers.
		n.stats.MessagesDropped++
		return
	}
	if !n.faulty[from] && !n.faulty[to] && f.Delay > n.maxHonestDelay {
		n.maxHonestDelay = f.Delay
	}
	ev.at = n.now + f.Delay
	n.queue.Push(&ev)
	if f.DupExtra > 0 {
		// The duplicate shares the envelope (Seq and payload): arena
		// payload blocks are recycled only at Reset, so the bytes stay
		// valid for the later delivery. The extra lag is not an honest
		// delay — the primary copy already bounds eventual delivery.
		n.stats.MessagesDuped++
		ev.at += f.DupExtra
		n.queue.Push(&ev)
	}
}
