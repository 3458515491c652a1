package main

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/relnet"
	"repro/internal/sim"
)

// interval is one party call, in nanoseconds since the trace base.
type interval struct{ start, end int64 }

// partyTrace accumulates one wrapped party's spans for one run. A party
// is driven by one goroutine at a time (the simulator's shard worker that
// owns it, or its livenet goroutine), so the record needs no locking; it
// is read only after the run has returned.
type partyTrace struct {
	batches, delivers int64
	busy              int64
	spans             []interval // recorded only by an outermost wrapper
	keepSpans         bool
}

func (p *partyTrace) reset(keepSpans bool) {
	*p = partyTrace{spans: p.spans[:0], keepSpans: keepSpans}
}

// traceBase anchors every party span of the process.
var traceBase = time.Now()

func nowNS() int64 { return int64(time.Since(traceBase)) }

func (p *partyTrace) record(start int64) {
	end := nowNS()
	p.busy += end - start
	if p.keepSpans {
		p.spans = append(p.spans, interval{start, end})
	}
}

// timed is the pass-through party wrapper: one span per Init, Deliver,
// DeliverBatch and OnTimer call. On its own it has exactly the
// sim.Process methods; the types below add the optional interfaces its
// inner party implements, so the simulator and livenet take the same
// code paths with and without the wrapper.
type timed struct {
	inner sim.Process
	tr    *partyTrace
}

func (t *timed) Init(api sim.API) {
	s := nowNS()
	t.inner.Init(api)
	t.tr.record(s)
}

func (t *timed) Deliver(from sim.PartyID, data []byte) {
	s := nowNS()
	t.inner.Deliver(from, data)
	t.tr.delivers++
	t.tr.record(s)
}

type errer interface{ Err() error }

// protoParty has the method set of the core protocol parties
// (core.AsyncAA, core.WitnessAA).
type protoParty struct {
	*timed
	sim.Estimator
	core.Snapshotter
	errer
}

func (p protoParty) DeliverBatch(b *sim.Batch) {
	s := nowNS()
	p.inner.(sim.BatchProcess).DeliverBatch(b)
	p.tr.batches++
	p.tr.record(s)
}

// transportParty has the method set of relnet.Proc.
type transportParty struct {
	*timed
	sim.Estimator
	core.Snapshotter
	errer
}

func (p transportParty) OnTimer(tag uint64) {
	s := nowNS()
	p.inner.(sim.TimerHandler).OnTimer(tag)
	p.tr.record(s)
}

// Optional-interface bits of a party.
const (
	hasBatch = 1 << iota
	hasTimer
	hasEstimate
	hasSnapshot
	hasErr
)

func ifaceMask(p sim.Process) int {
	m := 0
	if _, ok := p.(sim.BatchProcess); ok {
		m |= hasBatch
	}
	if _, ok := p.(sim.TimerHandler); ok {
		m |= hasTimer
	}
	if _, ok := p.(sim.Estimator); ok {
		m |= hasEstimate
	}
	if _, ok := p.(core.Snapshotter); ok {
		m |= hasSnapshot
	}
	if _, ok := p.(errer); ok {
		m |= hasErr
	}
	return m
}

const (
	protoMask     = hasBatch | hasEstimate | hasSnapshot | hasErr
	transportMask = hasTimer | hasEstimate | hasSnapshot | hasErr
)

// errUnsupportedParty is returned for an inner party whose optional
// interfaces no wrapper type mirrors: wrapping it would silently change
// the runtime's code path, so the traced run refuses instead.
var errUnsupportedParty = errors.New("perfbench: no timing wrapper mirrors this party's interfaces")

// wrapParty wraps inner so that the result implements exactly the
// optional interfaces inner implements.
func wrapParty(inner sim.Process, tr *partyTrace) (sim.Process, error) {
	t := &timed{inner: inner, tr: tr}
	switch ifaceMask(inner) {
	case 0:
		return t, nil
	case protoMask:
		return protoParty{t, inner.(sim.Estimator), inner.(core.Snapshotter), inner.(errer)}, nil
	case transportMask:
		return transportParty{t, inner.(sim.Estimator), inner.(core.Snapshotter), inner.(errer)}, nil
	default:
		return nil, fmt.Errorf("%w: %T", errUnsupportedParty, inner)
	}
}

// coverage returns the total length of the union of the intervals (it
// sorts them in place): the share of a parent span its children cover,
// counting overlapping children on parallel workers once.
func coverage(iv []interval) int64 {
	slices.SortFunc(iv, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, x := range iv {
		if x.start > curE {
			if curE >= curS {
				total += curE - curS
			}
			curS, curE = x.start, x.end
		} else if x.end > curE {
			curE = x.end
		}
	}
	if curE >= curS && len(iv) > 0 {
		total += curE - curS
	}
	return total
}

// addTransport adds s to dst, counter by counter.
func addTransport(dst *relnet.Stats, s relnet.Stats) {
	dst.DataSent += s.DataSent
	dst.Retransmits += s.Retransmits
	dst.AcksSent += s.AcksSent
	dst.DupsSuppressed += s.DupsSuppressed
	dst.GiveUps += s.GiveUps
}

// outcome is what a run must reproduce exactly, whichever path ran it.
type outcome struct {
	runErr    error
	msgs      int
	bytes     int
	dropped   int
	duped     int
	decisions map[sim.PartyID]float64
	transport relnet.Stats
}

func outcomeOf(res *sim.Result, runErr error, tr relnet.Stats) outcome {
	return outcome{
		runErr:    runErr,
		msgs:      res.Stats.MessagesSent,
		bytes:     res.Stats.BytesSent,
		dropped:   res.Stats.MessagesDropped,
		duped:     res.Stats.MessagesDuped,
		decisions: maps.Clone(res.Decisions),
		transport: tr,
	}
}

// sameOutcome compares msgs, bytes and decisions bit for bit.
func sameOutcome(a, b outcome) error {
	switch {
	case !errors.Is(a.runErr, b.runErr) && !errors.Is(b.runErr, a.runErr):
		return fmt.Errorf("run error %v != %v", a.runErr, b.runErr)
	case a.msgs != b.msgs:
		return fmt.Errorf("msgs %d != %d", a.msgs, b.msgs)
	case a.bytes != b.bytes:
		return fmt.Errorf("bytes %d != %d", a.bytes, b.bytes)
	case len(a.decisions) != len(b.decisions):
		return fmt.Errorf("%d decisions != %d", len(a.decisions), len(b.decisions))
	}
	for id, v := range a.decisions {
		w, ok := b.decisions[id]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("party %d decided %v != %v", id, v, w)
		}
	}
	return nil
}

// assembly runs a harness.Spec on a benchmark-owned simulator and party
// set, built only from the layers' public functions the way
// harness.RunContext builds it, so that the simulator and the parties can
// be timed separately. Its network and parties are recycled across runs,
// like a harness run context's.
type assembly struct {
	net    *sim.Network
	asyncs []*core.AsyncAA
	wits   []*core.WitnessAA
	rels   []*relnet.Proc
	outer  []partyTrace // one per party: the outermost wrapper's spans
	inner  []partyTrace // one per honest party under relnet: the protocol's spans
	res    sim.Result
}

// asmRun is one assembly execution's timings and counts.
type asmRun struct {
	out               outcome
	resetNS, runNS    int64
	coverNS           int64 // union of the outermost party spans
	coreNS, relnetNS  int64
	batches, delivers int64 // protocol-level calls on honest parties
	honestDelivered   int64
	framesSent        int64
	protoErr          error
}

func (a *assembly) party(p core.Params, i int, input float64) (sim.Process, error) {
	switch p.Protocol {
	case core.ProtoCrash, core.ProtoByzTrim:
		for len(a.asyncs) <= i {
			a.asyncs = append(a.asyncs, new(core.AsyncAA))
		}
		return a.asyncs[i], a.asyncs[i].Reset(p, input)
	case core.ProtoWitness:
		for len(a.wits) <= i {
			a.wits = append(a.wits, new(core.WitnessAA))
		}
		return a.wits[i], a.wits[i].Reset(p, input)
	default:
		return nil, fmt.Errorf("perfbench: protocol %v is not in any workload", p.Protocol)
	}
}

// run executes spec; with traced set, every party is wrapped in timing
// spans (and, under Reliable, a second wrapper sits outside relnet.Wrap).
func (a *assembly) run(spec harness.Spec, traced bool) (asmRun, error) {
	var r asmRun
	p := spec.Params
	env := fault.Env{N: p.N, Lo: p.Lo, Hi: p.Hi, Rounds: 128}
	if !p.Adaptive {
		rounds, err := p.FixedRounds()
		if err != nil {
			return r, err
		}
		env.Rounds = rounds
	}
	t0 := time.Now()
	var byz map[sim.PartyID]sim.Process
	if len(spec.Byz) > 0 {
		byz = make(map[sim.PartyID]sim.Process, len(spec.Byz))
	}
	for len(a.outer) < p.N {
		a.outer = append(a.outer, partyTrace{})
		a.inner = append(a.inner, partyTrace{})
	}
	for id, b := range spec.Byz {
		proc := b.New(env)
		if traced {
			tr := &a.outer[id]
			tr.reset(true)
			w, err := wrapParty(proc, tr)
			if err != nil {
				return r, err
			}
			proc = w
		}
		byz[id] = proc
	}
	cfg := sim.Config{
		N:         p.N,
		Scheduler: spec.Scheduler.Scheduler,
		Seed:      spec.Seed,
		Crashes:   spec.Crashes,
		Byzantine: byz,
		Restarts:  spec.Restarts,
		MaxEvents: spec.MaxEvents,
		Core:      harness.EventCore(),
		Batch:     harness.Batching(),
		Shards:    harness.Sharding(),
	}
	if a.net == nil {
		net, err := sim.New(cfg)
		if err != nil {
			return r, err
		}
		a.net = net
	} else if err := a.net.Reset(cfg); err != nil {
		return r, err
	}
	rels := 0
	var protos []sim.Process
	for i := 0; i < p.N; i++ {
		id := sim.PartyID(i)
		if _, isByz := spec.Byz[id]; isByz {
			continue
		}
		proto, err := a.party(p, i, spec.Inputs[i])
		if err != nil {
			return r, fmt.Errorf("party %d: %w", i, err)
		}
		protos = append(protos, proto)
		proc := proto
		if spec.Reliable {
			if traced {
				tr := &a.inner[i]
				tr.reset(false)
				if proc, err = wrapParty(proc, tr); err != nil {
					return r, err
				}
			}
			if rels == len(a.rels) {
				a.rels = append(a.rels, relnet.Wrap(proc))
			} else {
				a.rels[rels].Reset(proc)
			}
			proc = a.rels[rels]
			rels++
		}
		if traced {
			tr := &a.outer[i]
			tr.reset(true)
			if proc, err = wrapParty(proc, tr); err != nil {
				return r, err
			}
		}
		if err := a.net.SetProcess(id, proc); err != nil {
			return r, err
		}
	}
	t1 := time.Now()
	runErr := a.net.RunInto(&a.res)
	r.runNS = int64(time.Since(t1))
	r.resetNS = int64(t1.Sub(t0))

	var ts relnet.Stats
	for _, w := range a.rels[:rels] {
		addTransport(&ts, w.TransportStats())
	}
	r.out = outcomeOf(&a.res, runErr, ts)
	r.framesSent = ts.DataSent + ts.Retransmits + ts.AcksSent
	for _, proto := range protos {
		if perr := proto.(errer).Err(); perr != nil && r.protoErr == nil {
			r.protoErr = perr
		}
	}
	if !traced {
		return r, nil
	}
	var spans []interval
	var byzDelivered int64
	for i := 0; i < p.N; i++ {
		o := &a.outer[i]
		spans = append(spans, o.spans...)
		if _, isByz := spec.Byz[sim.PartyID(i)]; isByz {
			byzDelivered += o.delivers
			continue
		}
		proto := o
		if spec.Reliable {
			proto = &a.inner[i]
			r.relnetNS += o.busy - proto.busy
		}
		r.coreNS += proto.busy
		r.batches += proto.batches
		r.delivers += proto.delivers
	}
	r.coverNS = coverage(spans)
	r.honestDelivered = int64(a.res.Stats.MessagesDelivered) - byzDelivered
	if spec.Reliable {
		// Under relnet the protocol sees payloads, not frames.
		r.honestDelivered = r.delivers
	}
	return r, nil
}
