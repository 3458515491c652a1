package sim

import "slices"

// This file is the run loop. It drains one virtual-time tick per PopTick
// and delivers the tick in one of two ways:
//
//   - A sparse tick (fewer than batchTickMin events), and the tick in which
//     the event budget trips, go envelope by envelope in Seq order with
//     immediate scheduling (runTickSerial).
//   - A dense tick is grouped by destination in a reusable staging arena
//     and each party receives its whole tick in one DeliverBatch call, so
//     a party's protocol state is touched once per tick (cache-dense at
//     large n) instead of being round-robined against every other party's
//     state per envelope (runTickBatched).
//
// Equivalence contract. Both ways are observably IDENTICAL to delivering
// every envelope one at a time in (at, Seq) order: every experiment table,
// delivery trace, and stats counter matches byte for byte. Grouping by
// destination reorders processing across parties within a tick, which is
// invisible to the parties themselves (messages have delay >= 1, so no
// party can observe another party's same-tick processing) but WOULD leak
// through three global channels, each of which is closed explicitly:
//
//  1. The scheduler's rng stream and the Seq counter. Delivered one at a
//     time, sends are scheduled (Seq assigned, delay drawn) in the order
//     deliveries trigger them. Batched, sends and timers are DEFERRED:
//     api.Send/SetTimer only record a pending op tagged with the index of
//     the tick event being processed (its trigger), and a tick-end flush
//     schedules the ops in trigger order — a stable counting sort of op
//     indices by trigger index — so the Seq and rng streams are exactly
//     the per-envelope ones.
//  2. Mid-tick termination. Per-envelope delivery stops at the exact event
//     that decides the last pending honest party; later same-tick events
//     are never delivered and their sends never happen. Batched, the tick
//     has already been processed out of order when that decision lands, so
//     the flush repairs the overshoot: pending ops triggered after the
//     completing event are dropped with their send-time stats backed out,
//     and deliveries of later-triggered events are removed from the
//     delivered count. Party-local state past the completion point is
//     unobservable (the run is over; honest parties have all decided and
//     emit nothing further by protocol guard).
//  3. The event budget. MaxEvents aborts mid-tick at an exact event count,
//     and the delivered prefix would differ under grouping — so a tick that
//     cannot complete without tripping the budget is delivered envelope by
//     envelope (state entering the tick is identical by induction, so the
//     abort prefix is too).
//
// The golden run digests in batch_test.go were recorded from a separate
// per-envelope run loop before it was removed, and pin this contract.

// BatchProcess is an optional Process extension: a process that implements
// it receives each tick's envelopes in one DeliverBatch call instead of one
// Deliver call per envelope. Processes that don't implement it are driven
// by a compatibility shim that loops Deliver, so opting in is purely a
// performance choice.
type BatchProcess interface {
	Process
	// DeliverBatch consumes one tick's deliveries by calling batch.Next
	// until it returns false. The implementation must process envelopes in
	// the order Next yields them and must be observably equivalent to
	// receiving each envelope through Deliver: sends, decisions, and timer
	// registrations must happen at the same per-envelope points. Any
	// envelopes left unconsumed when DeliverBatch returns are delivered
	// through Deliver by the runtime.
	DeliverBatch(batch *Batch)
}

// Batch iterates one party's deliveries for one tick, in Seq order. The
// runtime owns the Batch; it is valid only during the DeliverBatch call it
// is passed to. Pulling envelopes through the iterator (rather than
// receiving a plain slice) is what lets the simulator attribute the sends a
// protocol emits to the exact envelope being processed — the bookkeeping
// behind the deferred-flush equivalence argument at the top of this file.
type Batch struct {
	net    *Network
	ps     *partyState
	events []event
	idxs   []int32
	pos    int
	env    Envelope // the envelope Next last returned
}

// Next returns the next envelope of the batch, or nil when the batch is
// exhausted. The pointer (and its Data) is valid until the next Next call
// — copy anything retained past it. Interleaved timer expiries are
// dispatched to the process's OnTimer from inside Next, at their exact
// tick position, so a BatchProcess that also uses timers needs no extra
// handling. The envelope is built in the Batch itself, so the pointer
// costs no allocation.
func (b *Batch) Next() *Envelope {
	n := b.net
	for b.pos < len(b.idxs) {
		i := b.idxs[b.pos]
		b.pos++
		if n.crashed[b.ps.id] {
			// A crash (send-budget exhaustion) mid-batch drops the rest of
			// the party's tick, exactly as per-envelope delivery skips
			// events to a crashed destination.
			continue
		}
		ev := &b.events[i]
		n.curTrig = i
		if ev.timer() {
			if th, ok := b.ps.proc.(TimerHandler); ok {
				th.OnTimer(ev.ref)
			}
			continue
		}
		n.stats.MessagesDelivered++
		n.delivTrig = append(n.delivTrig, i)
		// Field by field: a whole-struct copy of a just-built Envelope
		// stalls on store-to-load forwarding.
		e := &b.env
		e.From, e.To = PartyID(ev.from), PartyID(ev.to)
		e.Data = n.arena.bytes(ev.ref, ev.size)
		e.Sent, e.Seq = ev.sent, ev.seq
		return e
	}
	return nil
}

// drain delivers whatever the process left unconsumed (trailing timers, or
// envelopes if DeliverBatch returned early) through the per-envelope path,
// so a partial consumer cannot change observable behavior.
func (b *Batch) drain() {
	for b.pos < len(b.idxs) {
		i := b.idxs[b.pos]
		b.pos++
		b.net.deliverEvent(b.ps, &b.events[i], i)
	}
}

// pendingOp is one deferred send, multicast, or timer registration,
// recorded during batched tick processing and scheduled by flushPending in
// trigger order. A multicast coalesces into a single op (mcastTo > 0: the
// truncation-adjusted recipient count) so the pending volume scales with
// protocol actions, not fan-out.
type pendingOp struct {
	ref     uint64 // payload reference (see payloadArena.snapshot)
	tag     uint64
	delay   Time
	from    PartyID
	to      PartyID
	size    int32 // payload length
	trig    int32
	mcastTo int32
	timer   bool
}

// batchTickMin is the tick size below which grouping is skipped: a sparse
// tick (most parties receive at most one envelope) gains nothing from
// destination grouping, so it is delivered envelope by envelope instead of
// paying the staging and deferred-flush bookkeeping. The two ways are
// equivalent per tick, so the choice is free per tick.
const batchTickMin = 16

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
		if len(tick) < batchTickMin || events+len(tick) > budget {
			if err = n.runTickSerial(tick, &events, budget); err != nil {
				break
			}
			continue
		}
		events += len(tick)
		n.runTickBatched(tick)
	}
	n.tick = tick[:0]
	return err
}

// runTickSerial delivers one tick envelope by envelope in Seq order, with
// immediate scheduling, an inline observer, and per-event budget and
// termination checks. It serves sparse ticks and the (at most one) tick in
// which the event budget can trip.
func (n *Network) runTickSerial(tick []event, events *int, budget int) error {
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

// runTickBatched stages one dense tick by destination, delivers each
// party's group, and then performs the completion repair, the deferred
// flush, and the observer replay.
func (n *Network) runTickBatched(tick []event) {
	// Staging stores indices into the tick slice (not copies); tick is
	// stable until the next PopTick.
	for i := range tick {
		to := tick[i].to
		if len(n.stage[to]) == 0 {
			n.touched = append(n.touched, to)
		}
		n.stage[to] = append(n.stage[to], int32(i))
	}
	n.deferOps = true
	n.decideTrig = -1
	for _, pi := range n.touched {
		n.deliverPartyBatch(n.parties[pi], tick)
		n.stage[pi] = n.stage[pi][:0]
	}
	n.touched = n.touched[:0]
	n.deferOps = false

	maxTrig := int32(len(tick))
	if n.pendingHonest == 0 {
		// The run completed mid-tick: per-envelope delivery would have
		// stopped at the completing event. Back out deliveries of
		// later-triggered events and flush only ops triggered at or
		// before it.
		maxTrig = n.decideTrig
		for _, trig := range n.delivTrig {
			if trig > maxTrig {
				n.stats.MessagesDelivered--
			}
		}
	}
	n.flushPending(len(tick), maxTrig)
	n.fireObservers(tick, maxTrig)
	n.delivTrig = n.delivTrig[:0]
}

// fireObservers replays the tick's deliveries to the observer, in trigger
// (Seq) order with the completion overshoot dropped — exactly the sequence
// per-envelope delivery would have reported. Deferring the callbacks to
// tick end means an observer that reads simulation state (the harness
// trajectory sampler) sees end-of-tick state for every delivery of the
// tick rather than each intermediate state; consumers rely only on
// tick-boundary state, which grouping does not change (no party can
// observe another party's same-tick processing).
func (n *Network) fireObservers(batch []event, maxTrig int32) {
	if n.observer == nil || len(n.delivTrig) == 0 {
		return
	}
	slices.Sort(n.delivTrig)
	for _, trig := range n.delivTrig {
		if trig > maxTrig {
			break
		}
		n.observer(n.now, n.envelope(&batch[trig]))
	}
}

// deliverPartyBatch hands a party its staged tick, through DeliverBatch
// when the process opts in and through the per-envelope shim otherwise.
func (n *Network) deliverPartyBatch(ps *partyState, events []event) {
	idxs := n.stage[ps.id]
	if bp, ok := ps.proc.(BatchProcess); ok {
		b := &n.bat
		*b = Batch{net: n, ps: ps, events: events, idxs: idxs}
		bp.DeliverBatch(b)
		b.drain()
		*b = Batch{} // drop event and payload references
		return
	}
	for _, i := range idxs {
		n.deliverEvent(ps, &events[i], i)
	}
}

// deliverEvent is one per-envelope delivery step (shim and drain path).
// Observer callbacks are deferred to the tick-end replay (fireObservers).
func (n *Network) deliverEvent(ps *partyState, ev *event, trig int32) {
	if n.crashed[ps.id] {
		return
	}
	n.curTrig = trig
	if ev.timer() {
		if th, ok := ps.proc.(TimerHandler); ok {
			th.OnTimer(ev.ref)
		}
		return
	}
	n.stats.MessagesDelivered++
	n.delivTrig = append(n.delivTrig, trig)
	ps.proc.Deliver(PartyID(ev.from), n.arena.bytes(ev.ref, ev.size))
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

// flushPending schedules the tick's deferred ops: Seq assignment,
// scheduler delay draws, honest-delay tracking, and queue pushes happen
// here, in trigger order, which makes the Seq and rng streams identical to
// per-envelope delivery's. The order comes from a stable counting sort of
// op indices keyed on trig, which lies in [0, ntrig): O(ops + ntrig), and
// the ops themselves never move. Ops with trig > maxTrig were triggered
// after the run-completing event: per-envelope delivery never reached
// them, so they are dropped and their send-time stats backed out.
func (n *Network) flushPending(ntrig int, maxTrig int32) {
	if len(n.pend) == 0 {
		return
	}
	for _, i := range n.sortPending(ntrig) {
		op := &n.pend[i]
		if op.trig > maxTrig {
			// Triggered past the completion point: per-envelope delivery
			// never emitted these; back out their send-time accounting. Timer
			// registrations were never counted as sends — just drop them.
			if op.timer {
				continue
			}
			n.countSends(op.from, -max(1, int(op.mcastTo)), int(op.size))
			continue
		}
		if op.timer {
			n.scheduleTimer(op.from, op.delay, op.tag)
		} else if op.mcastTo > 0 {
			for to := PartyID(0); to < PartyID(op.mcastTo); to++ {
				n.scheduleSend(op.from, to, op.ref, op.size)
			}
		} else {
			n.scheduleSend(op.from, op.to, op.ref, op.size)
		}
	}
	n.pend = n.pend[:0]
}

// sortPending returns the indices of n.pend ordered by trig, ties kept in
// append order. Its count and order buffers are reused across ticks and
// runs.
func (n *Network) sortPending(ntrig int) []int32 {
	if cap(n.pendStart) < ntrig+1 {
		n.pendStart = make([]int32, ntrig+1, 2*ntrig+1)
	}
	start := n.pendStart[:ntrig+1]
	clear(start)
	for i := range n.pend {
		start[n.pend[i].trig+1]++
	}
	for t := 1; t < len(start); t++ {
		start[t] += start[t-1]
	}
	if cap(n.pendOrder) < len(n.pend) {
		n.pendOrder = make([]int32, len(n.pend), 2*len(n.pend))
	}
	order := n.pendOrder[:len(n.pend)]
	for i := range n.pend {
		t := n.pend[i].trig
		order[start[t]] = int32(i)
		start[t]++
	}
	return order
}

// scheduleTimer assigns the next Seq and queues a timer expiry for a
// party — the single tail of the immediate and the deferred SetTimer.
func (n *Network) scheduleTimer(p PartyID, delay Time, tag uint64) {
	n.seq++
	n.queue.Push(&event{
		at:   n.now + delay,
		seq:  n.seq,
		from: int32(p),
		to:   int32(p),
		ref:  tag,
		size: timerSize,
	})
}

// scheduleSend assigns the next Seq, draws the scheduler decision, and
// queues the send — the single tail of both the immediate send path and
// the batched flush, so the Seq/rng streams and any lossy-network fates
// are identical either way. When the scheduler is a
// FateScheduler the send can be dropped (no event queued) or duplicated
// (a second event at Delay+DupExtra sharing the envelope); a plain
// Scheduler takes the original delay-only path.
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
