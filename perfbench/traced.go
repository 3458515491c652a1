package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/livenet"
	"repro/internal/relnet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// layerMetrics is every per-layer metric a traced run prints, in order.
// A workload that bypasses a layer reports 0 for its metrics.
var layerMetrics = []struct{ name, unit string }{
	{"sim.reset_ns", "ns"},
	{"sim.self_ns_per_msg", "ns"},
	{"sim.warm_over_fresh", "ratio"},
	{"sim.dropped_per_run", "msgs"},
	{"sim.duped_per_run", "msgs"},
	{"harness.pool_speedup", "ratio"},
	{"harness.pool_idle_frac", "fraction"},
	{"harness.self_ns", "ns"},
	{"harness.spec_ns", "ns"},
	{"workload.generate_ns", "ns"},
	{"core.deliver_ns_per_msg.crash", "ns"},
	{"core.deliver_ns_per_msg.byztrim", "ns"},
	{"core.deliver_ns_per_msg.witness", "ns"},
	{"core.msgs_per_batch", "msgs"},
	{"relnet.self_ns_per_frame", "ns"},
	{"relnet.retransmits_per_payload", "ratio"},
	{"relnet.acks_per_payload", "ratio"},
	{"relnet.dups_suppressed_per_payload", "ratio"},
	{"relnet.giveups_per_run", "count"},
	{"serve.host_ns_per_attempt", "ns"},
	{"serve.attempts_per_offered", "ratio"},
	{"serve.envelope_share", "fraction"},
	{"serve.shed_frac", "fraction"},
	{"serve.deadline_frac", "fraction"},
	{"serve.breaker_open_frac", "fraction"},
	{"serve.degraded_frac", "fraction"},
	{"serve.retries_per_offered", "ratio"},
	{"serve.msgs_per_attempt", "msgs"},
	{"livenet.core_share", "fraction"},
	{"livenet.self_ns_per_msg", "ns"},
	{"livenet.msgs_per_run", "msgs"},
	{"livenet.dropped_per_run", "msgs"},
	{"livenet.shed_per_run", "msgs"},
	{"livenet.send_timeouts_per_run", "count"},
	{"trace.overhead_frac", "fraction"},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: undeclared layer metric " + name)
}

func (b *bench) setLayer(name string, v float64, n int, note string) {
	b.layer(name, layerUnit(name), v, n, note)
}

// fillBypassed adds a zero for every layer metric the workload did not set.
func (b *bench) fillBypassed() {
	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		if i := slices.IndexFunc(b.layers, func(m metric) bool { return m.name == lm.name }); i >= 0 {
			out = append(out, b.layers[i])
		} else {
			out = append(out, metric{lm.name, lm.unit, 0, 0, "layer not exercised by this workload"})
		}
	}
	b.layers = out
}

// span is one traced call around a layer's public function. child is
// the part of the span its child spans cover.
type span struct {
	name       string
	start, dur int64
	child      int64
}

// tracer keeps every span in memory; the summary is written at the end.
type tracer struct{ spans []span }

func (t *tracer) add(name string, start time.Time, d time.Duration, child int64) {
	t.spans = append(t.spans, span{name, int64(start.Sub(traceBase)), int64(d), child})
}

func (t *tracer) write(w io.Writer) {
	type agg struct {
		n            int
		total, child int64
	}
	var order []string
	aggs := map[string]*agg{}
	for _, s := range t.spans {
		a := aggs[s.name]
		if a == nil {
			a = &agg{}
			aggs[s.name] = a
			order = append(order, s.name)
		}
		a.n++
		a.total += s.dur
		a.child += s.child
	}
	fmt.Fprintf(w, "== spans (%d kept in memory)\n", len(t.spans))
	for _, name := range order {
		a := aggs[name]
		fmt.Fprintf(w, "  %-36s count=%-7d total_ms=%-12.3f self_ms=%.3f\n",
			name, a.n, float64(a.total)/1e6, float64(a.total-a.child)/1e6)
	}
}

// layerAcc sums the assembly's per-run split over a traced phase.
type layerAcc struct {
	runs                        int
	msgs, delivered, calls      float64
	resetNS, plainNS, tracedNS  float64
	harnessNS, freshNS          float64
	selfNS                      []float64
	simSelfNS, relnetNS, frames float64
	coreNS, coreMsgs            map[core.Protocol]float64
	dropped, duped              float64
	transport                   relnet.Stats
	plainMS, tracedMS           []float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{coreNS: map[core.Protocol]float64{}, coreMsgs: map[core.Protocol]float64{}}
}

// assemble runs spec four more ways and checks that each reproduces want
// (the harness run's outcome): on a fresh harness.RunContext and a fresh
// assembly, whose difference is the harness's own time with both sides
// built from scratch, then untraced and traced on the recycled assembly,
// which split the run into simulator and party time.
func (acc *layerAcc) assemble(b *bench, asm *assembly, tr *tracer, label string, spec harness.Spec, want outcome) error {
	var start time.Time
	var freshNS time.Duration
	var freshAsm asmRun
	var err error
	for k := 0; k < 2; k++ {
		if k == acc.runs%2 {
			start = time.Now()
			fresh, err := harness.NewRunContext().Run(spec)
			freshNS = time.Since(start)
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			tr.add("harness.RunContext.Run[fresh]", start, freshNS, 0)
			if err := sameOutcome(want, outcomeOf(fresh.Result, fresh.RunErr, fresh.Transport)); err != nil {
				b.failed++
				b.problem("%s: fresh run context diverges from the harness run: %v", label, err)
			}
			continue
		}
		start = time.Now()
		if freshAsm, err = (&assembly{}).run(spec, false); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		tr.add("sim.New+SetProcess+RunInto[fresh]", start, time.Duration(freshAsm.resetNS+freshAsm.runNS), 0)
	}
	// Alternate which of the two recycled runs goes first, so neither
	// always inherits the other's warm caches.
	var plain, traced asmRun
	for k := 0; k < 2; k++ {
		if k == acc.runs%2 {
			start = time.Now()
			if plain, err = asm.run(spec, false); err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
			tr.add("sim.Reset+SetProcess", start, time.Duration(plain.resetNS), 0)
			tr.add("sim.RunInto", start.Add(time.Duration(plain.resetNS)), time.Duration(plain.runNS), 0)
			continue
		}
		start = time.Now()
		if traced, err = asm.run(spec, true); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		tr.add("sim.Reset+SetProcess[traced]", start, time.Duration(traced.resetNS), 0)
		tr.add("sim.RunInto[traced]", start.Add(time.Duration(traced.resetNS)), time.Duration(traced.runNS), traced.coverNS)
	}
	for _, r := range []asmRun{freshAsm, plain, traced} {
		if err := sameOutcome(want, r.out); err != nil {
			b.failed++
			b.problem("%s: assembly diverges from the harness run: %v", label, err)
		}
		if r.protoErr != nil {
			b.problem("%s: protocol error in assembly: %v", label, r.protoErr)
		}
	}
	acc.freshNS += float64(freshNS)
	acc.selfNS = append(acc.selfNS, float64(freshNS)-float64(freshAsm.resetNS+freshAsm.runNS))
	acc.runs++
	acc.msgs += float64(plain.out.msgs)
	acc.resetNS += float64(plain.resetNS)
	acc.plainNS += float64(plain.resetNS + plain.runNS)
	acc.tracedNS += float64(traced.resetNS + traced.runNS)
	acc.plainMS = append(acc.plainMS, float64(plain.resetNS+plain.runNS)/1e6)
	acc.tracedMS = append(acc.tracedMS, float64(traced.resetNS+traced.runNS)/1e6)
	acc.simSelfNS += float64(traced.runNS - traced.coverNS)
	acc.relnetNS += float64(traced.relnetNS)
	acc.frames += float64(traced.framesSent)
	acc.coreNS[spec.Params.Protocol] += float64(traced.coreNS)
	acc.coreMsgs[spec.Params.Protocol] += float64(traced.honestDelivered)
	acc.delivered += float64(traced.honestDelivered)
	acc.calls += float64(traced.batches + traced.delivers)
	acc.dropped += float64(plain.out.dropped)
	acc.duped += float64(plain.out.duped)
	addTransport(&acc.transport, plain.out.transport)
	return nil
}

// harnessRun times one harness run of spec (harness.Run, or Run on a
// recycled RunContext) and returns its outcome.
func (acc *layerAcc) harnessRun(tr *tracer, name string, run func(harness.Spec) (*harness.Report, error), spec harness.Spec) (*harness.Report, outcome, error) {
	start := time.Now()
	rep, err := run(spec)
	d := time.Since(start)
	if err != nil {
		return nil, outcome{}, err
	}
	tr.add(name, start, d, 0)
	acc.harnessNS += float64(d)
	return rep, outcomeOf(rep.Result, rep.RunErr, rep.Transport), nil
}

// setAssemblyLayers reports the metrics every assembly-backed workload
// shares.
func (b *bench) setAssemblyLayers(acc *layerAcc) {
	runs := float64(acc.runs)
	b.setLayer("sim.reset_ns", acc.resetNS/runs, acc.runs, "sim.Network.Reset + party Reset + SetProcess, per run")
	b.setLayer("sim.self_ns_per_msg", acc.simSelfNS/acc.msgs, int(acc.msgs), "RunInto minus the union of party spans")
	b.setLayer("sim.dropped_per_run", acc.dropped/runs, acc.runs, "")
	b.setLayer("sim.duped_per_run", acc.duped/runs, acc.runs, "")
	b.setLayer("harness.self_ns", median(acc.selfNS), acc.runs, "median over runs of a fresh RunContext.Run minus a fresh assembly's build and run")
	for proto, name := range map[core.Protocol]string{
		core.ProtoCrash:   "core.deliver_ns_per_msg.crash",
		core.ProtoByzTrim: "core.deliver_ns_per_msg.byztrim",
		core.ProtoWitness: "core.deliver_ns_per_msg.witness",
	} {
		if m := acc.coreMsgs[proto]; m > 0 {
			b.setLayer(name, acc.coreNS[proto]/m, int(m), "protocol span time per delivered message")
		}
	}
	b.setLayer("core.msgs_per_batch", acc.delivered/acc.calls, int(acc.calls), "messages per protocol delivery call")
	if t := acc.transport; t.DataSent > 0 {
		d := float64(t.DataSent)
		b.setLayer("relnet.self_ns_per_frame", acc.relnetNS/acc.frames, int(acc.frames), "outer span minus protocol span, per frame sent")
		b.setLayer("relnet.retransmits_per_payload", float64(t.Retransmits)/d, int(t.DataSent), "")
		b.setLayer("relnet.acks_per_payload", float64(t.AcksSent)/d, int(t.DataSent), "")
		b.setLayer("relnet.dups_suppressed_per_payload", float64(t.DupsSuppressed)/d, int(t.DataSent), "")
		b.setLayer("relnet.giveups_per_run", float64(t.GiveUps)/runs, acc.runs, "")
	}
	over := (acc.tracedNS - acc.plainNS) / acc.plainNS
	b.setLayer("trace.overhead_frac", over, acc.runs, "traced over untraced assembly time, minus 1")
	b.overhead = append(b.overhead,
		fmt.Sprintf("ns_per_msg: untraced %.6g traced %.6g diff %+.6g ns", acc.plainNS/acc.msgs, acc.tracedNS/acc.msgs, (acc.tracedNS-acc.plainNS)/acc.msgs),
		fmt.Sprintf("run_p50_ms: untraced %.6g traced %.6g diff %+.6g ms", median(acc.plainMS), median(acc.tracedMS), median(acc.tracedMS)-median(acc.plainMS)),
		fmt.Sprintf("runs_per_s: untraced %.6g traced %.6g diff %+.6g runs/s", runs/(acc.plainNS/1e9), runs/(acc.tracedNS/1e9), runs/(acc.tracedNS/1e9)-runs/(acc.plainNS/1e9)),
		"msgs_per_run, bytes_per_run, rounds_per_run, decided_frac: diff 0 (checked exactly)",
	)
}

// traceSim is sweep-small's traced phase.
func traceSim(b *bench, seed int64, st *simState, budget time.Duration, tr *tracer) error {
	acc := newLayerAcc()
	asm := &assembly{}
	var genNS, specNS float64
	var specs int
	var poolWall, poolSeq float64
	for start, iters := time.Now(), 0; until(start, budget, iters, 1); iters++ {
		t0 := time.Now()
		items, gen, err := simItems(seed)
		if err != nil {
			return err
		}
		tr.add("workload.generate", t0, gen.generate, 0)
		tr.add("harness.SpecFrom", t0.Add(gen.generate), gen.lower, 0)
		genNS += float64(gen.generate)
		specNS += float64(gen.lower)
		specs += gen.items
		t0 = time.Now()
		reps, err := harness.RunAll(st.specs)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		tr.add("harness.RunAll", t0, d, 0)
		poolWall += float64(d)
		for i, rep := range reps {
			b.checkReport(&st.guard, i, st.items[i].scen, rep)
		}
		// The harness runs go back to back, as in the workload; the
		// assembly runs that split them follow in a second loop.
		wants := make([]outcome, len(items))
		for i, it := range items {
			t0 := time.Now()
			rep, want, err := acc.harnessRun(tr, "harness.Run", harness.Run, it.spec)
			if err != nil {
				return fmt.Errorf("%s: %w", it.scen, err)
			}
			poolSeq += float64(time.Since(t0))
			b.checkReport(&st.guard, i, it.scen, rep)
			wants[i] = want
		}
		for i, it := range items {
			if err := acc.assemble(b, asm, tr, it.scen, it.spec, wants[i]); err != nil {
				return err
			}
		}
	}
	b.setAssemblyLayers(acc)
	b.setLayer("sim.warm_over_fresh", acc.harnessNS/acc.freshNS, acc.runs, "harness.Run over a fresh RunContext, same specs")
	b.setLayer("harness.spec_ns", specNS/float64(specs), specs, "harness.SpecFrom per spec")
	b.setLayer("workload.generate_ns", genNS/float64(specs), specs, "scenario.Parse + input draw per spec")
	p := float64(harness.Parallelism())
	b.setLayer("harness.pool_speedup", poolSeq/poolWall, acc.runs, "one-at-a-time harness.Run total over harness.RunAll wall, same specs")
	b.setLayer("harness.pool_idle_frac", max(0, 1-poolSeq/(p*poolWall)), acc.runs, fmt.Sprintf("estimate: 1 - sequential work / (%g workers x RunAll wall)", p))
	return nil
}

// attemptSeed repeats serve's per-attempt seed derivation (unexported in
// internal/serve); the traced run checks it against the seed each
// RequestOutcome records for its last attempt.
func attemptSeed(cfgSeed, reqSeed int64, attempt int) int64 {
	return cfgSeed ^ reqSeed ^ (int64(attempt)+1)*-0x61c8864680b583eb
}

// traceServe is serve-lossy's traced phase: serve.Simulate under a span,
// then every attempt the Summary records re-run through harness.Run and
// the assembly, which estimates the envelope's share of host time.
func traceServe(b *bench, st *serveState, budget time.Duration, tr *tracer) error {
	acc := newLayerAcc()
	asm := &assembly{}
	cfg := st.s[0].cfg
	p := core.Params{Protocol: cfg.Protocol, N: cfg.N, T: cfg.T, Eps: cfg.Eps, Lo: cfg.Lo, Hi: cfg.Hi, Adaptive: cfg.Adaptive}
	scens := map[string]scenario.Spec{}
	var genNS, specNS, simNS, rerunNS float64
	var reqs, specs int
	var offered, instances, retries, shed, deadline, brk, degraded, msgs int64
	verified := true
	for start, iters := time.Now(), 0; until(start, budget, iters, 1); iters++ {
		t0 := time.Now()
		ss, gen, err := serveConfigs(cfg.Seed)
		if err != nil {
			return err
		}
		tr.add("workload.Spec.Generate", t0, gen.generate, 0)
		genNS += float64(gen.generate)
		reqs += gen.items
		t0 = time.Now()
		pass, err := st.simulate(b, serveStreams)
		if err != nil {
			return err
		}
		for k, sum := range pass.sums {
			tr.add("serve.Simulate", t0, pass.walls[k], 0)
			t0 = t0.Add(pass.walls[k])
			offered += sum.Offered
			retries += sum.Retries
			shed += sum.Shed
			deadline += sum.DeadlineExceeded
			brk += sum.BreakerOpen
			degraded += sum.Degraded
		}
		instances += pass.instances
		msgs += pass.msgs
		// Only stream 0's attempts are re-run: all four would take
		// several times the traced phase.
		sum, s := pass.sums[0], ss[0]
		simNS += float64(pass.walls[0])
		// Lower every recorded attempt first, then re-run them back to
		// back as Simulate ran them, then split each on the assembly.
		type attempt struct {
			label string
			spec  harness.Spec
		}
		var attempts []attempt
		for _, ro := range sum.Outcomes {
			req := s.reqs[ro.ID]
			for k := 1; k <= ro.Attempts; k++ {
				seed := attemptSeed(cfg.Seed, req.Seed, k)
				if k == ro.Attempts && seed != ro.Seed {
					verified = false
				}
				sc, ok := scens[ro.Scenario]
				if !ok {
					if sc, err = scenario.Parse(ro.Scenario); err != nil {
						return err
					}
					scens[ro.Scenario] = sc
				}
				t0 := time.Now()
				spec, err := harness.SpecFrom(p, harness.UniformInputs(cfg.N, cfg.Lo, cfg.Hi, seed), sc, seed)
				if err != nil {
					return err
				}
				spec.Reliable = cfg.Reliable
				spec.MaxEvents = cfg.MaxEvents
				d := time.Since(t0)
				tr.add("harness.SpecFrom", t0, d, 0)
				specNS += float64(d)
				specs++
				attempts = append(attempts, attempt{ro.Scenario, spec})
			}
		}
		var rerunMsgs, rerunInst int64
		wants := make([]outcome, len(attempts))
		t0 = time.Now()
		for i, at := range attempts {
			_, want, err := acc.harnessRun(tr, "harness.Run", harness.Run, at.spec)
			if err != nil {
				return err
			}
			wants[i] = want
			rerunMsgs += int64(want.msgs)
			rerunInst++
		}
		rerunNS += float64(time.Since(t0))
		for i, at := range attempts {
			if err := acc.assemble(b, asm, tr, at.label, at.spec, wants[i]); err != nil {
				return err
			}
		}
		if rerunMsgs != sum.InstanceMsgs || rerunInst != sum.Instances {
			verified = false
		}
	}
	b.setAssemblyLayers(acc)
	of := float64(offered)
	b.setLayer("workload.generate_ns", genNS/float64(reqs), reqs, "workload.Spec.Generate per request")
	b.setLayer("harness.spec_ns", specNS/float64(specs), specs, "input draw + harness.SpecFrom per re-run attempt")
	b.setLayer("serve.host_ns_per_attempt", simNS/float64(acc.runs), acc.runs, "serve.Simulate wall time per attempt, stream 0")
	b.setLayer("serve.attempts_per_offered", float64(instances)/of, int(offered), "")
	note := "estimate: 1 - (recorded attempts re-run through harness.Run) / serve.Simulate"
	if !verified {
		note += "; UNVERIFIED: re-run seeds or msgs do not match the Summary"
		b.problem("serve: attempt re-runs do not reproduce the Summary's attempts; envelope_share is unverified")
	}
	b.setLayer("serve.envelope_share", 1-rerunNS/simNS, acc.runs, note+"; stream 0")
	b.setLayer("serve.shed_frac", float64(shed)/of, int(offered), "")
	b.setLayer("serve.deadline_frac", float64(deadline)/of, int(offered), "")
	b.setLayer("serve.breaker_open_frac", float64(brk)/of, int(offered), "")
	b.setLayer("serve.degraded_frac", float64(degraded)/of, int(offered), "")
	b.setLayer("serve.retries_per_offered", float64(retries)/of, int(offered), "")
	b.setLayer("serve.msgs_per_attempt", float64(msgs)/float64(instances), int(instances), "")
	return nil
}

// traceLive is live-lossy's traced phase: each party is wrapped inside
// and outside its own relnet.Wrap (livenet's Reliable option would wrap
// internally, out of the benchmark's reach), and the process CPU time of
// each run is split into protocol, transport and runtime.
func traceLive(b *bench, seed int64, st *liveState, untracedMS []float64, budget time.Duration, tr *tracer) error {
	var genNS, cpu, coreNS, outerNS, delivered, calls, frames float64
	var msgs, dropped, shed, timeouts float64
	var ts relnet.Stats
	var runMS []float64
	inner := make([]partyTrace, liveN)
	outer := make([]partyTrace, liveN)
	for start := time.Now(); until(start, budget, len(runMS), minTail*2); {
		i := st.next
		st.next++
		t0 := time.Now()
		inputs := liveInputs(seed, i)
		d := time.Since(t0)
		tr.add("workload.generate", t0, d, 0)
		genNS += float64(d)
		protos, err := liveParties(inputs)
		if err != nil {
			return err
		}
		procs := make([]sim.Process, liveN)
		rels := make([]*relnet.Proc, liveN)
		for j, proto := range protos {
			inner[j].reset(false)
			outer[j].reset(false)
			w, err := wrapParty(proto, &inner[j])
			if err != nil {
				return err
			}
			rels[j] = relnet.Wrap(w)
			if procs[j], err = wrapParty(rels[j], &outer[j]); err != nil {
				return err
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), liveRunTimeout)
		c0 := cpuNS()
		t0 = time.Now()
		res, runErr := livenet.Run(ctx, procs, liveOptions(seed, i, false))
		d = time.Since(t0)
		c1 := cpuNS()
		cancel()
		tr.add("livenet.Run", t0, d, 0)
		b.checkLive(i, inputs, res, runErr)
		if res == nil {
			continue
		}
		runMS = append(runMS, float64(d)/1e6)
		cpu += float64(c1 - c0)
		for j := range protos {
			coreNS += float64(inner[j].busy)
			outerNS += float64(outer[j].busy)
			delivered += float64(inner[j].delivers)
			calls += float64(inner[j].delivers + inner[j].batches)
			s := rels[j].TransportStats()
			addTransport(&ts, s)
			frames += float64(s.DataSent + s.Retransmits + s.AcksSent)
		}
		msgs += float64(res.Messages)
		dropped += float64(res.Dropped)
		shed += float64(res.Shed)
		timeouts += float64(res.SendTimeouts)
	}
	runs := float64(len(runMS))
	n := len(runMS)
	b.setLayer("workload.generate_ns", genNS/runs, n, "input draw per run")
	b.setLayer("core.deliver_ns_per_msg.crash", coreNS/delivered, int(delivered), "protocol span time per delivered payload")
	b.setLayer("core.msgs_per_batch", delivered/calls, int(calls), "")
	d := float64(ts.DataSent)
	b.setLayer("relnet.self_ns_per_frame", (outerNS-coreNS)/frames, int(frames), "outer span minus protocol span, per frame sent")
	b.setLayer("relnet.retransmits_per_payload", float64(ts.Retransmits)/d, int(ts.DataSent), "")
	b.setLayer("relnet.acks_per_payload", float64(ts.AcksSent)/d, int(ts.DataSent), "")
	b.setLayer("relnet.dups_suppressed_per_payload", float64(ts.DupsSuppressed)/d, int(ts.DataSent), "")
	b.setLayer("relnet.giveups_per_run", float64(ts.GiveUps)/runs, n, "")
	b.setLayer("livenet.core_share", coreNS/cpu, n, "protocol span time over process CPU time")
	b.setLayer("livenet.self_ns_per_msg", (cpu-outerNS)/msgs, int(msgs), "process CPU time outside party spans, per message")
	b.setLayer("livenet.msgs_per_run", msgs/runs, n, "")
	b.setLayer("livenet.dropped_per_run", dropped/runs, n, "")
	b.setLayer("livenet.shed_per_run", shed/runs, n, "")
	b.setLayer("livenet.send_timeouts_per_run", timeouts/runs, n, "")
	u, t := median(untracedMS), median(runMS)
	b.setLayer("trace.overhead_frac", t/u-1, n, "traced over untraced run_p50_ms, minus 1")
	b.overhead = append(b.overhead,
		fmt.Sprintf("run_p50_ms: untraced %.6g traced %.6g diff %+.6g ms", u, t, t-u),
		fmt.Sprintf("runs_per_s: untraced %.6g traced %.6g diff %+.6g runs/s", 1000/u, 1000/t, 1000/t-1000/u),
	)
	return nil
}
