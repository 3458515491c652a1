package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestCalendarMatchesSortedRandom drives the calendar queue with random
// push/pop schedules — delays from 1 tick to past the wheel horizon, so
// the overflow heap and its migration into the wheel are exercised — and
// checks the pops against an independent oracle: every push sorted by
// (at, Seq). Pushes always land after the tick in flight (delays are
// >= 1), so a correct queue pops exactly that sorted sequence, one whole
// tick per PopTick.
func TestCalendarMatchesSortedRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newCalendarQueue()
		var pushed, popped []event
		now := Time(0)
		seq := uint64(0)
		budget := 4000 // total pushes per seed, so the drain terminates
		push := func(k int) {
			if k > budget {
				k = budget
			}
			budget -= k
			for i := 0; i < k; i++ {
				var delay Time
				switch rng.Intn(4) {
				case 0:
					delay = 1 + Time(rng.Int63n(8)) // dense near-future
				case 1:
					delay = 1 + Time(rng.Int63n(wheelSize-1)) // anywhere in the wheel
				case 2:
					delay = wheelSize + Time(rng.Int63n(3*wheelSize)) // overflow
				default:
					delay = 1 + Time(rng.Int63n(int64(MaxDelayCap))) // worst case
				}
				seq++
				e := event{at: now + delay, seq: seq}
				q.Push(&e)
				pushed = append(pushed, e)
			}
		}
		push(64)
		var batch []event
		for q.Len() > 0 {
			batch = q.PopTick(batch[:0])
			if len(batch) == 0 || batch[0].at <= now {
				t.Fatalf("seed %d: PopTick returned %d events at a tick not after %d", seed, len(batch), now)
			}
			now = batch[0].at
			for _, e := range batch {
				if e.at != now {
					t.Fatalf("seed %d: tick %d batch holds an event at %d", seed, now, e.at)
				}
			}
			popped = append(popped, batch...)
			if q.Len() != len(pushed)-len(popped) {
				t.Fatalf("seed %d: Len %d, want %d", seed, q.Len(), len(pushed)-len(popped))
			}
			if rng.Intn(3) > 0 {
				push(rng.Intn(16)) // interleave pushes, as deliveries do
			}
		}
		slices.SortFunc(pushed, func(a, b event) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		if len(popped) != len(pushed) {
			t.Fatalf("seed %d: popped %d of %d pushed events", seed, len(popped), len(pushed))
		}
		for i := range pushed {
			if popped[i].at != pushed[i].at || popped[i].seq != pushed[i].seq {
				t.Fatalf("seed %d: pop %d: calendar (at=%d seq=%d), oracle (at=%d seq=%d)",
					seed, i, popped[i].at, popped[i].seq, pushed[i].at, pushed[i].seq)
			}
		}
	}
}

// TestCalendarSameTickFIFO pins the per-bucket FIFO: many events on one
// tick must pop as a single batch in send-sequence order.
func TestCalendarSameTickFIFO(t *testing.T) {
	q := newCalendarQueue()
	const k = 100
	for i := 1; i <= k; i++ {
		q.Push(&event{at: 7, seq: uint64(i)})
	}
	batch := q.PopTick(nil)
	if len(batch) != k {
		t.Fatalf("got batch of %d, want %d", len(batch), k)
	}
	for i, e := range batch {
		if e.seq != uint64(i+1) {
			t.Fatalf("batch[%d] has seq %d, want %d", i, e.seq, i+1)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue retains %d events", q.Len())
	}
}

// TestCalendarArenaRecycles pins the free list: pushing and popping in
// waves must not grow the arena past the high-water mark of live events.
func TestCalendarArenaRecycles(t *testing.T) {
	q := newCalendarQueue()
	seq := uint64(0)
	now := Time(0)
	for wave := 0; wave < 50; wave++ {
		for i := 0; i < 40; i++ {
			seq++
			q.Push(&event{at: now + 1 + Time(i%5), seq: seq})
		}
		var buf []event
		for q.Len() > 0 {
			buf = q.PopTick(buf[:0])
			now = buf[0].at
		}
	}
	if len(q.arena) > 40 {
		t.Fatalf("arena grew to %d nodes for 40 concurrent events", len(q.arena))
	}
}
