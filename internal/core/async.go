package core

import (
	"fmt"
	"math/bits"

	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/wire"
)

// futureRoundSlack bounds how far beyond the current horizon round-tagged
// values are buffered, so a Byzantine sender cannot exhaust memory with
// absurd round numbers while honest values slightly ahead of a growing
// adaptive horizon are still retained.
const futureRoundSlack = 4096

// roundRingLen is the window of the dense round ring: buckets for rounds
// within roundRingLen of each other live in a direct-indexed ring (the
// common case — honest parties lead each other by at most the horizon);
// colliding far-apart rounds (Byzantine round spam) spill to a map.
const roundRingLen = 64

// AsyncAA is the asynchronous value-exchange protocol (ProtoCrash and
// ProtoByzTrim). Each round r the party multicasts ⟨VAL, r, v⟩, waits until
// it holds round-r values from n−t distinct parties (its own included),
// applies the approximation function, and advances; after the final round it
// decides.
//
// In fixed-range mode every party derives the same round count R from the
// public parameters, so every party sends a value for every round 1..R and
// quorums always fill: liveness and unconditional ε-agreement follow.
//
// In adaptive mode the party first multicasts ⟨INIT, input⟩, estimates the
// spread from n−t INIT values, and derives a private horizon which it
// piggybacks on every VAL message; horizons are joined by maximum. A party
// that decides multicasts ⟨DECIDED, y⟩, and receivers use y as that party's
// value for every later round. The adaptive guarantee is conditional on
// scheduler fairness: a scheduler that keeps the extreme inputs out of the
// first n−t INIT values shrinks the horizon. Experiment E8 maps the
// boundary.
//
// Bookkeeping is dense (struct-of-arrays, like the witness ring): per-round
// reception state lives in roundBuckets held by a tag-checked ring indexed
// by round, INIT and DECIDED values in flat per-origin arrays with seen
// bitsets, and the INIT spread estimate is a running min/max pair. The
// quorum test per message is an O(1) count check; the O(n) view assembly
// and multiset reduce run once per completed round, not once per message —
// which is what makes n ≥ 512 sweeps tractable.
type AsyncAA struct {
	p Params
	// ring holds the active rounds' buckets, indexed round % roundRingLen
	// and tag-checked; spill catches ring collisions (rounds ≥ roundRingLen
	// apart, only reachable through Byzantine round tags). freeBuckets
	// recycles completed rounds' buckets across rounds and runs.
	ring        []*roundBucket
	spill       map[uint32]*roundBucket
	freeBuckets []*roundBucket
	// inits and frozen are dense per-origin stores with seen bitsets;
	// initLo/initHi carry the running INIT spread (O(1) per INIT, no
	// staging walk).
	initVals       []float64
	initSeen       []uint64
	initCnt        int
	initLo, initHi float64
	frozenVals     []float64
	frozenSeen     []uint64
	frozenCnt      int
	api            sim.API
	fn             multiset.Func
	viewBuf        []float64 // per-round reception scratch, reused across rounds
	wireBuf        []byte    // wire-encoding scratch; runtimes snapshot on send
	snapRounds     []uint32  // sorted-round scratch for Snapshot, reused
	input          float64
	v              float64
	round          uint32 // round currently being collected (1-based)
	horizon        uint32 // last round; 0 means decide immediately
	started        bool   // value rounds have begun (always true in fixed mode)
	decided        bool
	err            error
}

var (
	_ sim.Process      = (*AsyncAA)(nil)
	_ sim.BatchProcess = (*AsyncAA)(nil)
	_ sim.Estimator    = (*AsyncAA)(nil)
)

// NewAsyncAA builds a party of the asynchronous protocol. Params must have
// Protocol ProtoCrash or ProtoByzTrim and pass Validate; input is this
// party's input value.
func NewAsyncAA(p Params, input float64) (*AsyncAA, error) {
	a := &AsyncAA{}
	if err := a.Reset(p, input); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset re-initializes the party for a new run, performing exactly the
// validation NewAsyncAA performs but recycling the round buckets, the
// dense INIT/DECIDED stores, and the scratch buffers — the recycled-run-
// context form of fresh construction. After a same-shape warm-up run it
// allocates nothing; a shape change (different N) drops the shape-bound
// pools.
func (a *AsyncAA) Reset(p Params, input float64) error {
	if p.Protocol != ProtoCrash && p.Protocol != ProtoByzTrim {
		return fmt.Errorf("%w: AsyncAA does not implement %s", ErrBadParams, p.Protocol)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if !isUsable(input) {
		return fmt.Errorf("%w: non-finite input %v", ErrBadParams, input)
	}
	if !p.Adaptive && (input < p.Lo || input > p.Hi) {
		return fmt.Errorf("%w: input %v outside promised range [%v, %v]",
			ErrBadParams, input, p.Lo, p.Hi)
	}
	sameShape := p.N == a.p.N && a.ring != nil
	if sameShape {
		for i, b := range a.ring {
			if b != nil {
				b.clear()
				a.freeBuckets = append(a.freeBuckets, b)
				a.ring[i] = nil
			}
		}
		for r, b := range a.spill {
			b.clear()
			a.freeBuckets = append(a.freeBuckets, b)
			delete(a.spill, r)
		}
		clear(a.initSeen)
		clear(a.frozenSeen)
	} else {
		words := (p.N + 63) / 64
		a.ring = make([]*roundBucket, roundRingLen)
		a.spill = nil
		clear(a.freeBuckets) // shape-bound: drop old-size buckets entirely
		a.freeBuckets = a.freeBuckets[:0]
		a.initVals = make([]float64, p.N)
		a.initSeen = make([]uint64, words)
		a.frozenVals = make([]float64, p.N)
		a.frozenSeen = make([]uint64, words)
	}
	a.initCnt, a.frozenCnt = 0, 0
	a.initLo, a.initHi = 0, 0
	a.p = p
	a.fn = p.fn()
	a.input, a.v = input, input
	a.api = nil
	a.round, a.horizon = 0, 0
	a.started, a.decided = false, false
	a.err = nil
	return nil
}

// Init implements sim.Process.
func (a *AsyncAA) Init(api sim.API) {
	a.api = api
	if a.p.Adaptive {
		a.wireBuf = wire.AppendInit(a.wireBuf[:0], wire.Init{Value: a.input})
		api.Multicast(a.wireBuf)
		return
	}
	r, err := a.p.FixedRounds()
	if err != nil {
		a.fail(err)
		return
	}
	a.begin(uint32(r))
}

// begin starts the value-exchange rounds. The horizon is joined with any
// horizon already learned from early VAL messages of faster parties.
func (a *AsyncAA) begin(horizon uint32) {
	a.started = true
	if horizon > a.horizon {
		a.horizon = horizon
	}
	a.round = 1
	if a.horizon == 0 {
		a.decide()
		return
	}
	a.sendRound()
	a.advance()
}

// sendRound multicasts the current value tagged with the current round.
func (a *AsyncAA) sendRound() {
	a.wireBuf = wire.AppendValue(a.wireBuf[:0], wire.Value{
		Round:   a.round,
		Horizon: a.horizon,
		Value:   a.v,
	})
	a.api.Multicast(a.wireBuf)
}

// Deliver implements sim.Process.
func (a *AsyncAA) Deliver(from sim.PartyID, data []byte) {
	a.deliver(from, data)
}

// DeliverBatch implements sim.BatchProcess: one call per virtual-time tick,
// with the per-message work reduced to decode plus an O(1) bucket insert —
// the quorum check and the (per-round, not per-message) view reduce happen
// at the same per-envelope points as Deliver, so the two paths are
// observably identical.
func (a *AsyncAA) DeliverBatch(b *sim.Batch) {
	for env := b.Next(); env != nil; env = b.Next() {
		a.deliver(env.From, env.Data)
	}
}

// deliver is the shared per-message body.
func (a *AsyncAA) deliver(from sim.PartyID, data []byte) {
	if a.err != nil {
		return
	}
	kind, err := wire.Peek(data)
	if err != nil {
		return // garbage from a Byzantine sender
	}
	switch kind {
	case wire.KindInit:
		m, err := wire.UnmarshalInit(data)
		if err != nil || !isUsable(m.Value) {
			return
		}
		a.onInit(from, m.Value)
	case wire.KindValue:
		m, err := wire.UnmarshalValue(data)
		if err != nil || !isUsable(m.Value) {
			return
		}
		a.onValue(from, m)
	case wire.KindDecided:
		m, err := wire.UnmarshalDecided(data)
		if err != nil || !isUsable(m.Value) {
			return
		}
		a.onDecided(from, m.Value)
	default:
		// RBC and report traffic belongs to other protocols; ignore.
	}
}

// onInit handles adaptive-mode input announcements. Late INIT values that
// grow the spread estimate extend the horizon monotonically.
func (a *AsyncAA) onInit(from sim.PartyID, v float64) {
	if !a.p.Adaptive {
		return
	}
	if from < 0 || int(from) >= a.p.N {
		return
	}
	wd, bit := int(from)>>6, uint64(1)<<(uint(from)&63)
	if a.initSeen[wd]&bit != 0 {
		return
	}
	a.initSeen[wd] |= bit
	a.initVals[from] = v
	if a.initCnt == 0 {
		a.initLo, a.initHi = v, v
	} else {
		if v < a.initLo {
			a.initLo = v
		}
		if v > a.initHi {
			a.initHi = v
		}
	}
	a.initCnt++
	if !a.started {
		if a.initCnt >= a.p.Quorum() {
			a.begin(uint32(a.p.adaptiveRounds(a.initSpread())))
		}
		return
	}
	a.extendHorizon(uint32(a.p.adaptiveRounds(a.initSpread())))
}

// initSpread is the running spread of the INIT values seen so far — a
// min/max pair maintained by onInit, O(1) per INIT with no staging walk.
func (a *AsyncAA) initSpread() float64 {
	if a.initCnt == 0 {
		return 0
	}
	return a.initHi - a.initLo
}

// extendHorizon joins horizons by maximum (adaptive mode only).
func (a *AsyncAA) extendHorizon(h uint32) {
	if !a.p.Adaptive || a.decided || h <= a.horizon {
		return
	}
	a.horizon = h
}

// onDecided freezes a decided party's final value for every later round.
func (a *AsyncAA) onDecided(from sim.PartyID, v float64) {
	if from < 0 || int(from) >= a.p.N {
		return
	}
	wd, bit := int(from)>>6, uint64(1)<<(uint(from)&63)
	if a.frozenSeen[wd]&bit != 0 {
		return
	}
	a.frozenSeen[wd] |= bit
	a.frozenVals[from] = v
	a.frozenCnt++
	// A frozen value can complete the current round's quorum; the count
	// pair is a cheap superset test (overlap makes it an overestimate) and
	// advance re-checks exactly.
	if b := a.bucket(a.round, false); b == nil {
		if a.frozenCnt >= a.p.Quorum() {
			a.advance()
		}
	} else if b.cnt+a.frozenCnt >= a.p.Quorum() {
		a.advance()
	}
}

// bucket returns round's reception bucket, creating it when create is set:
// from the direct-indexed ring slot when free or matching, spilling to the
// map when a far-apart round (Byzantine round tags) collides.
func (a *AsyncAA) bucket(round uint32, create bool) *roundBucket {
	slot := round % roundRingLen
	b := a.ring[slot]
	if b != nil && b.round == round {
		return b
	}
	// Not in the ring: the round may have been spilled earlier (its slot
	// was occupied then), and a spilled round stays in the map for its
	// lifetime even if the slot has since been freed — a freed slot must
	// not shadow recorded state.
	if sb, ok := a.spill[round]; ok {
		return sb
	}
	if !create {
		return nil
	}
	nb := a.takeBucket(round)
	if b == nil {
		a.ring[slot] = nb
		return nb
	}
	if a.spill == nil {
		a.spill = make(map[uint32]*roundBucket)
	}
	a.spill[round] = nb
	return nb
}

// takeBucket pulls a recycled bucket (or allocates) and tags it.
func (a *AsyncAA) takeBucket(round uint32) *roundBucket {
	var b *roundBucket
	if k := len(a.freeBuckets); k > 0 {
		b = a.freeBuckets[k-1]
		a.freeBuckets[k-1] = nil
		a.freeBuckets = a.freeBuckets[:k-1]
	} else {
		b = newRoundBucket(a.p.N)
	}
	b.round = round
	return b
}

// activeBuckets counts live round buckets (ring plus spill), the memory
// bound the future-round slack guard enforces (used by tests).
func (a *AsyncAA) activeBuckets() int {
	n := len(a.spill)
	for _, b := range a.ring {
		if b != nil {
			n++
		}
	}
	return n
}

// dropBucket recycles a completed round's bucket.
func (a *AsyncAA) dropBucket(round uint32) {
	slot := round % roundRingLen
	if b := a.ring[slot]; b != nil && b.round == round {
		b.clear()
		a.freeBuckets = append(a.freeBuckets, b)
		a.ring[slot] = nil
		return
	}
	if b, ok := a.spill[round]; ok {
		b.clear()
		a.freeBuckets = append(a.freeBuckets, b)
		delete(a.spill, round)
	}
}

// onValue records a round-tagged value, joining the piggybacked horizon.
func (a *AsyncAA) onValue(from sim.PartyID, m wire.Value) {
	a.extendHorizon(m.Horizon)
	if m.Round == 0 || uint64(m.Round) > uint64(a.horizon)+futureRoundSlack {
		return
	}
	if from < 0 || int(from) >= a.p.N {
		return
	}
	b := a.bucket(m.Round, true)
	if !b.add(from, m.Value) {
		return // only a sender's first value for a round counts
	}
	// The quorum test is the count pair; the O(n) view assembly and reduce
	// run only when the current round can actually complete. Values for
	// other rounds can never complete the current round, so the advance
	// probe is skipped entirely — this is the "one view rebuild per round
	// instead of per message" batching win.
	if m.Round == a.round && b.cnt+a.frozenCnt >= a.p.Quorum() {
		a.advance()
	}
}

// advance processes as many rounds as currently have full quorums.
func (a *AsyncAA) advance() {
	if !a.started || a.decided || a.err != nil {
		return
	}
	for {
		view := a.view(a.round)
		if len(view) < a.p.Quorum() {
			return
		}
		next, err := multiset.ApplyInPlace(a.fn, view)
		if err != nil {
			a.fail(fmt.Errorf("core: round %d: %w", a.round, err))
			return
		}
		a.v = next
		a.dropBucket(a.round)
		a.round++
		if a.round > a.horizon {
			a.decide()
			return
		}
		a.sendRound()
	}
}

// view assembles the reception multiset for a round: round-tagged values
// plus frozen DECIDED values from parties that sent nothing for the round.
// The returned slice is the party's reusable scratch buffer — valid until
// the next view call, sorted in place by the apply step.
func (a *AsyncAA) view(round uint32) []float64 {
	out := a.viewBuf[:0]
	b := a.bucket(round, false)
	if b != nil {
		out = b.appendValues(out)
		if a.frozenCnt > 0 {
			for wi, word := range a.frozenSeen {
				word &^= b.seen[wi]
				for word != 0 {
					out = append(out, a.frozenVals[wi<<6+bits.TrailingZeros64(word)])
					word &= word - 1
				}
			}
		}
	} else if a.frozenCnt > 0 {
		for wi, word := range a.frozenSeen {
			for word != 0 {
				out = append(out, a.frozenVals[wi<<6+bits.TrailingZeros64(word)])
				word &= word - 1
			}
		}
	}
	a.viewBuf = out
	return out
}

func (a *AsyncAA) decide() {
	if a.decided {
		return
	}
	a.decided = true
	a.api.Decide(a.v)
	if a.p.Adaptive {
		a.wireBuf = wire.AppendDecided(a.wireBuf[:0], wire.Decided{Value: a.v})
		a.api.Multicast(a.wireBuf)
	}
}

func (a *AsyncAA) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// Err reports an internal invariant failure, if any. The harness checks it
// after every run.
func (a *AsyncAA) Err() error { return a.err }

// Estimate implements sim.Estimator.
func (a *AsyncAA) Estimate() (float64, bool) { return a.v, true }

// Round reports the round currently being collected (for tests).
func (a *AsyncAA) Round() uint32 { return a.round }

// Decided reports whether the party has output.
func (a *AsyncAA) Decided() bool { return a.decided }
