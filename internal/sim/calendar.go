package sim

import "math/bits"

// event is a scheduled delivery or timer expiry. It holds no pointers: a
// delivery's payload is a reference into the network's payload arena, and
// a timer's tag shares that reference's slot. An event is 48 bytes, and
// the queue arena and tick buffer that hold events are pointer-free, so
// copying one needs no GC write barrier.
type event struct {
	at   Time
	seq  uint64
	sent Time
	from int32
	to   int32
	// ref locates a delivery's payload in the payload arena; for a timer
	// it is the timer's tag.
	ref uint64
	// size is the payload length in bytes, or timerSize for a timer.
	size int32
}

// timerSize marks a timer expiry in event.size.
const timerSize = -1

func (e *event) timer() bool { return e.size == timerSize }

// calendarQueue is the simulator's event queue: a timing wheel of one-tick
// buckets over the near future, an overflow min-heap for events beyond the
// wheel horizon, and a flat event arena recycled through a free list. Push
// and PopTick are amortized O(1) per event, versus a binary heap's
// O(log M) — the difference is the dominant cost of large-n sweeps, where
// M (messages in flight) grows with n².
//
// PopTick hands over the whole earliest tick at once, so the run loop can
// deliver a tick without re-consulting the queue per event (delays are
// >= 1 tick, so a delivery can never append to the tick being drained).
//
// Ordering invariant. Deliveries must happen in strict (at, Seq) order,
// and Seq is assigned monotonically at push time, so a bucket's FIFO chain
// is Seq-ordered as long as events enter it in push order. Far-future
// events take a detour through the overflow heap; they are migrated into
// the wheel the moment their tick enters the wheel window (drainOverflow
// runs after every window advance, before control returns to the pusher),
// so a direct push can never slot in underneath an older overflow event.
// The overflow heap itself pops in (at, Seq) order, keeping migration
// appends sorted too.
const (
	wheelBits = 11
	// wheelSize is the wheel horizon in ticks. The standard schedulers
	// assign delays well under it (the largest, heavytail's cap and
	// staggered's base+n·step at n=256, stay in the hundreds); anything
	// bigger — up to MaxDelayCap — overflows to the heap.
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// calNode is one arena slot: an event plus its intrusive bucket-chain link.
type calNode struct {
	ev   event
	next int32
}

// calBucket is a FIFO chain of arena indices; -1 means empty.
type calBucket struct {
	head, tail int32
}

type calendarQueue struct {
	arena    []calNode
	freeHead int32 // free-list head into arena; -1 when exhausted
	wheel    [wheelSize]calBucket
	occupied [wheelSize / 64]uint64 // one bit per non-empty bucket
	// base is the earliest tick the wheel window [base, base+wheelSize)
	// can hold. It only advances within a run; Reset rewinds it to 0.
	base     Time
	inWheel  int
	overflow eventHeap
}

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{freeHead: -1}
	for i := range q.wheel {
		q.wheel[i] = calBucket{head: -1, tail: -1}
	}
	return q
}

// Len reports the number of pending events.
func (q *calendarQueue) Len() int { return q.inWheel + q.overflow.Len() }

// alloc takes a node from the free list (or grows the arena) and copies
// *e straight into it: the event moves once, from the caller's frame to
// its arena slot. The copy goes field by field because a whole-struct
// copy of an event the caller has just built stalls on store-to-load
// forwarding.
func (q *calendarQueue) alloc(e *event) int32 {
	var idx int32
	if q.freeHead >= 0 {
		idx = q.freeHead
		q.freeHead = q.arena[idx].next
	} else {
		q.arena = append(q.arena, calNode{})
		idx = int32(len(q.arena) - 1)
	}
	n := &q.arena[idx]
	n.ev.at, n.ev.seq, n.ev.sent = e.at, e.seq, e.sent
	n.ev.from, n.ev.to = e.from, e.to
	n.ev.ref, n.ev.size = e.ref, e.size
	n.next = -1
	return idx
}

// Reset empties the wheel and overflow heap and rewinds the window to tick
// zero, keeping the arena's capacity for the next run. Only the occupied
// buckets — found through the occupancy bitmap — are cleared, so a
// context recycled from a large-n run resets in constant time for small-n
// runs. Events hold no pointers, so the nodes themselves need no clearing;
// the arena is truncated and refilled from its start. Arena indices are
// invisible to delivery order (buckets chain FIFO and ties break on Seq),
// so a reset queue is observably identical to a fresh one.
func (q *calendarQueue) Reset() {
	if q.inWheel > 0 {
		for wi, word := range q.occupied {
			for word != 0 {
				slot := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				q.wheel[slot] = calBucket{head: -1, tail: -1}
			}
			q.occupied[wi] = 0
		}
	}
	q.arena = q.arena[:0]
	q.freeHead = -1
	q.base = 0
	q.inWheel = 0
	q.overflow.Reset()
}

// Push inserts a copy of *e. Its time must be strictly after every tick
// already popped (the simulator guarantees this: delays are >= 1).
func (q *calendarQueue) Push(e *event) {
	if e.at >= q.base+wheelSize {
		q.overflow.Push(*e)
		return
	}
	q.insert(e)
}

// insert appends a copy of *e to its wheel bucket. e.at must lie inside
// the window.
func (q *calendarQueue) insert(e *event) {
	idx := q.alloc(e)
	slot := int(e.at) & wheelMask
	b := &q.wheel[slot]
	if b.tail >= 0 {
		q.arena[b.tail].next = idx
	} else {
		b.head = idx
		q.occupied[slot>>6] |= 1 << uint(slot&63)
	}
	b.tail = idx
	q.inWheel++
}

// drainOverflow migrates every overflow event whose tick has entered the
// wheel window. Called after every base advance, so bucket chains stay
// Seq-ordered (see the ordering invariant above).
func (q *calendarQueue) drainOverflow() {
	for q.overflow.Len() > 0 && q.overflow.items[0].at < q.base+wheelSize {
		e := q.overflow.Pop()
		q.insert(&e)
	}
}

// nextTick returns the earliest occupied tick. inWheel must be > 0.
func (q *calendarQueue) nextTick() Time {
	start := int(q.base) & wheelMask
	w := start >> 6
	word := q.occupied[w] &^ ((1 << uint(start&63)) - 1)
	// One full wrap plus a re-visit of the start word's low bits.
	for i := 0; i <= wheelSize/64; i++ {
		if word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			return q.base + Time((slot-start)&wheelMask)
		}
		w = (w + 1) & (wheelSize/64 - 1)
		word = q.occupied[w]
	}
	panic("sim: calendar queue occupancy bitmap out of sync")
}

// PopTick removes every event scheduled at the earliest pending tick and
// appends them to buf in Seq order, returning the extended slice. It
// returns buf unchanged when the queue is empty.
func (q *calendarQueue) PopTick(buf []event) []event {
	if q.inWheel == 0 {
		if q.overflow.Len() == 0 {
			return buf
		}
		// Wheel is empty: jump the window to the overflow minimum.
		q.base = q.overflow.items[0].at
		q.drainOverflow()
	}
	t := q.nextTick()
	q.base = t
	// The window just advanced; pull newly eligible far-future events in
	// before any post-delivery push can reach their buckets. None of them
	// can land on tick t itself (they were beyond the previous horizon,
	// and t is inside it).
	q.drainOverflow()
	slot := int(t) & wheelMask
	b := &q.wheel[slot]
	for idx := b.head; idx >= 0; {
		n := &q.arena[idx]
		buf = append(buf, n.ev)
		next := n.next
		n.next = q.freeHead
		q.freeHead = idx
		idx = next
		q.inWheel--
	}
	b.head, b.tail = -1, -1
	q.occupied[slot>>6] &^= 1 << uint(slot&63)
	return buf
}

// eventHeap is the overflow store: a binary min-heap ordered by (delivery
// time, send sequence). A hand-rolled heap (rather than container/heap)
// avoids per-operation interface allocations.
type eventHeap struct {
	items []event
}

func (h *eventHeap) Len() int { return len(h.items) }

// Reset empties the heap, keeping the backing array.
func (h *eventHeap) Reset() { h.items = h.items[:0] }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Push inserts an event.
func (h *eventHeap) Push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the earliest event. It must not be called on an
// empty heap.
func (h *eventHeap) Pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
