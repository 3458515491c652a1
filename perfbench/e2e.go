package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/livenet"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Set-up repetitions, warm-up passes and the least number of timed units
// a phase runs however short its budget. Set-up repeats at least
// setupReps times and for at least setupTime: live-lossy's set-up cost
// moves by up to a third between phases of about a second in one
// process, so its median must span several of them.
const (
	setupReps     = 9
	setupTime     = 3 * time.Second
	simWarmPasses = 3
	liveWarmRuns  = 20
	minUnits      = 3
)

// bench collects one workload's numbers and verdicts.
type bench struct {
	e2e       []metric
	layers    []metric
	overhead  []string
	attempted int
	failed    int
	problems  []string
}

func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) add(name, unit string, v float64, n int, note string) {
	b.e2e = append(b.e2e, metric{name, unit, v, n, note})
}

func (b *bench) layer(name, unit string, v float64, n int, note string) {
	b.layers = append(b.layers, metric{name, unit, v, n, note})
}

// costs collects a phase's timed units: each unit's wall time, process
// CPU time, runs and messages, plus per-run wall times where runs are
// timed one by one.
type costs struct {
	wallNS, cpuNS, runs, msgs []float64
	runWallMS                 []float64
}

func (c *costs) unit(wall time.Duration, cpu int64, runs, msgs int) {
	c.wallNS = append(c.wallNS, float64(wall))
	c.cpuNS = append(c.cpuNS, float64(cpu))
	c.runs = append(c.runs, float64(runs))
	c.msgs = append(c.msgs, float64(msgs))
}

// per returns, for every unit, num[i]/den[i]*scale.
func per(num, den []float64, scale float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		out[i] = num[i] / den[i] * scale
	}
	return out
}

// addCosts reports the timing metrics every workload shares, as medians
// over timed units. unit names the timed unit in the notes.
func (b *bench) addCosts(c *costs, unit string) {
	n := len(c.wallNS)
	units := unit + "es"
	if unit == "run" {
		units = "runs"
	}
	b.add("runs_per_s", "runs/s", median(per(c.runs, c.wallNS, 1e9)), n, "median over "+units+", wall")
	b.add("ns_per_msg", "ns", median(per(c.wallNS, c.msgs, 1)), n, "median over "+units+" of wall ns per message sent")
	runMS, note := c.runWallMS, "wall, per run"
	if runMS == nil {
		// The runs of a unit overlap or are not timed one by one, so
		// each gets the unit's share.
		runMS, note = per(c.wallNS, c.runs, 1e-6), "wall, per "+unit+": "+unit+" wall / runs in it"
	}
	b.add("run_p50_ms", "ms", median(runMS), len(runMS), note)
	if q, v, ok := highestPercentile(runMS); ok {
		b.add(fmt.Sprintf("run_p%g_ms", q*100), "ms", v, len(runMS), note)
	}
	b.add("cpu_ms_per_run", "ms", median(per(c.cpuNS, c.runs, 1e-6)), n, "median over "+units+" of process CPU time per run")
	b.add("cpu_ns_per_msg", "ns", median(per(c.cpuNS, c.msgs, 1)), n, "median over "+units+" of process CPU ns per message sent")
}

// addSetup reports the set-up repetitions: process CPU seconds (steady on
// a shared host) on the result line, wall seconds in the report.
func (b *bench) addSetup(wall, cpu []float64, what string) {
	b.add("setup_s", "s", median(cpu), len(cpu), "median process CPU seconds of a cold set-up: "+what)
	b.add("setup_wall_s", "s", median(wall), len(wall), "median wall seconds of the same set-ups")
}

// addHeap closes the window and reports its heap figures.
func (b *bench) addHeap(w *window, units int) {
	w.close()
	b.add("live_heap_mb", "MiB", mib(w.final), 1, "live heap after a forced collection at the end of the phase; pooled run contexts count only if no collection ran just before")
	b.add("peak_heap_mb", "MiB", mib(max(w.peak, w.final)), units, "highest live heap any collection in the phase found")
}

// simCounts are the per-run counts the exact-count guard pins.
type simCounts struct {
	msgs, bytes int
	rounds      float64
}

// guard remembers the first value seen for each key and reports any
// later value that differs: every pass of a set must repeat the counts.
type guard[K comparable, V comparable] struct{ ref map[K]V }

func (g *guard[K, V]) check(k K, v V) (V, bool) {
	if g.ref == nil {
		g.ref = map[K]V{}
	}
	ref, seen := g.ref[k]
	if !seen {
		g.ref[k] = v
		return v, true
	}
	return ref, ref == v
}

// checkReport applies the simulator output check and the exact-count
// guard to run i's report and returns its counts.
func (b *bench) checkReport(g *guard[int, simCounts], i int, label string, rep *harness.Report) simCounts {
	b.attempted++
	if !rep.OK() {
		b.failed++
		b.problem("%s: %s", label, rep.Failure())
	}
	c := simCounts{rep.Result.Stats.MessagesSent, rep.Result.Stats.BytesSent, rep.Result.Rounds()}
	if ref, ok := g.check(i, c); !ok {
		b.problem("%s: exact-count drift: msgs/bytes/rounds %v, first pass %v", label, c, ref)
	}
	return c
}

// simState is sweep-small after set-up.
type simState struct {
	items []simItem
	specs []harness.Spec
	guard guard[int, simCounts]
}

// runSimPass executes every spec once through harness.RunAll and returns
// the pass's wall and process CPU time. visit sees each report after the
// pass, outside the timing.
func (st *simState) runSimPass(visit func(i int, rep *harness.Report)) (time.Duration, int64, error) {
	t0, c0 := time.Now(), cpuNS()
	reps, err := harness.RunAll(st.specs)
	cpu := cpuNS() - c0
	wall := time.Since(t0)
	if err != nil {
		return wall, cpu, err
	}
	for i, rep := range reps {
		visit(i, rep)
	}
	return wall, cpu, nil
}

func setupSim(b *bench, seed int64) (*simState, []float64, []float64, error) {
	st := &simState{}
	wall, cpu, err := setupTimes(func() error {
		items, _, err := simItems(seed)
		if err != nil {
			return err
		}
		st.items = items
		st.specs = make([]harness.Spec, len(items))
		for i := range items {
			st.specs[i] = items[i].spec
		}
		for p := 0; p < simWarmPasses; p++ {
			if _, _, err := st.runSimPass(func(i int, rep *harness.Report) {
				b.checkReport(&st.guard, i, st.items[i].scen, rep)
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return st, wall, cpu, err
}

// measureSim is the end-to-end phase of sweep-small. Its timed unit is a
// pass over the run list.
func measureSim(b *bench, seed int64, budget time.Duration) (*simState, error) {
	st, setupWall, setupCPU, err := setupSim(b, seed)
	if err != nil {
		return nil, err
	}
	attempted0, failed0 := b.attempted, b.failed
	var c costs
	var runs, msgs, bytes int
	var rounds float64
	w := newWindow()
	for start := time.Now(); until(start, budget, len(c.wallNS), minUnits); {
		passMsgs := 0
		wall, cpu, err := st.runSimPass(func(i int, rep *harness.Report) {
			rc := b.checkReport(&st.guard, i, st.items[i].scen, rep)
			runs++
			passMsgs += rc.msgs
			bytes += rc.bytes
			rounds += rc.rounds
		})
		if err != nil {
			return nil, err
		}
		w.sample()
		msgs += passMsgs
		c.unit(wall, cpu, len(st.specs), passMsgs)
	}
	allocs := w.allocs()
	failed := b.failed - failed0
	attempted := b.attempted - attempted0
	b.addSetup(setupWall, setupCPU, fmt.Sprintf("generate, lower, %d warm passes", simWarmPasses))
	b.addCosts(&c, "pass")
	b.add("msgs_per_run", "msgs", float64(msgs)/float64(runs), runs, "")
	b.add("bytes_per_run", "bytes", float64(bytes)/float64(runs), runs, "")
	b.add("rounds_per_run", "rounds", rounds/float64(runs), runs, "sim.Result.Rounds")
	b.add("allocs_per_run", "allocs", float64(allocs)/float64(runs), runs, "")
	b.add("failed_frac", "fraction", float64(failed)/float64(attempted), attempted, "")
	b.add("decided_frac", "fraction", 1-float64(failed)/float64(attempted), attempted, "runs passing Report.OK")
	b.addHeap(w, len(c.wallNS))
	return st, nil
}

// serveKey is every virtual counter, latency and goodput of one
// serve.Simulate pass; all passes of a set must agree exactly.
type serveKey struct {
	c               serve.Counters
	instances, msgs int64
	p50, p99, end   int64
	goodput         float64
}

func keyOf(s *serve.Summary) serveKey {
	return serveKey{s.Counters, s.Instances, s.InstanceMsgs, s.LatencyP(0.5), s.LatencyP(0.99), s.End, s.Goodput()}
}

type serveState struct {
	s     []serveSetup
	guard guard[int, serveKey]
}

// servePass is one pass over every request stream.
type servePass struct {
	sums                              []*serve.Summary
	walls                             []time.Duration
	wall                              time.Duration
	cpu                               int64
	offered, decided, instances, msgs int64
}

// simulate serves the first n streams once and applies the accounting
// check and the exact-count guard to each.
func (st *serveState) simulate(b *bench, n int) (servePass, error) {
	var p servePass
	for k, s := range st.s[:n] {
		t0, c0 := time.Now(), cpuNS()
		sum, err := serve.Simulate(s.w, s.cfg, s.opts, serveHorizon)
		p.cpu += cpuNS() - c0
		d := time.Since(t0)
		if err != nil {
			return p, err
		}
		b.attempted += int(sum.Offered)
		ok := true
		if !sum.Counters.Accounted() {
			ok = false
			b.problem("serve stream %d: accounting identity broken: %+v", k, sum.Counters)
		}
		if ref, same := st.guard.check(k, keyOf(sum)); !same {
			ok = false
			b.problem("serve stream %d: exact-count drift: %+v, first pass %+v", k, keyOf(sum), ref)
		}
		if !ok {
			b.failed += int(sum.Offered)
		}
		p.sums = append(p.sums, sum)
		p.walls = append(p.walls, d)
		p.wall += d
		p.offered += sum.Offered
		p.decided += sum.Decided
		p.instances += sum.Instances
		p.msgs += sum.InstanceMsgs
	}
	return p, nil
}

func measureServe(b *bench, seed int64, budget time.Duration) (*serveState, error) {
	st := &serveState{}
	setupWall, setupCPU, err := setupTimes(func() error {
		ss, _, err := serveConfigs(seed)
		if err != nil {
			return err
		}
		st.s = ss
		// Warm up on stream 0; the other streams' exact-count references
		// come from the first measured pass.
		_, err = st.simulate(b, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	var c costs
	var reqPerS []float64
	var offered, decided, instances int64
	var last servePass
	w := newWindow()
	for start := time.Now(); until(start, budget, len(c.wallNS), minUnits); {
		p, err := st.simulate(b, serveStreams)
		if err != nil {
			return nil, err
		}
		w.sample()
		c.unit(p.wall, p.cpu, int(p.instances), int(p.msgs))
		reqPerS = append(reqPerS, float64(p.offered)/p.wall.Seconds())
		offered += p.offered
		decided += p.decided
		instances += p.instances
		last = p
	}
	allocs := w.allocs()
	passes := len(c.wallNS)
	b.addSetup(setupWall, setupCPU, fmt.Sprintf("generate %d streams, 1 warm pass over stream 0", serveStreams))
	b.add("req_per_s", "req/s", median(reqPerS), passes, "median over passes of offered requests per wall second")
	b.addCosts(&c, "pass")
	b.add("msgs_per_run", "msgs", float64(last.msgs)/float64(last.instances), int(last.instances), "per attempt")
	// The virtual figures repeat exactly on every pass; they pool the
	// streams of one pass.
	var lat []float64
	var kiloticks float64
	for _, sum := range last.sums {
		for _, ro := range sum.Outcomes {
			if ro.Outcome == serve.OutcomeDecided {
				lat = append(lat, float64(ro.Latency))
			}
		}
		kiloticks += float64(max(sum.End, sum.Horizon)) / 1000
	}
	b.add("goodput_per_kt", "decided/kilotick", float64(last.decided)/kiloticks, int(last.decided), "virtual, decided requests per kilotick over all streams")
	b.add("serve_p50_ticks", "ticks", median(lat), len(lat), "virtual, decided requests of all streams")
	note99 := "virtual, decided requests of all streams"
	if beyond(len(lat), 0.99) < minTail {
		note99 += fmt.Sprintf("; only %d samples beyond p99 (exact value, repeats every pass)", beyond(len(lat), 0.99))
	}
	b.add("serve_p99_ticks", "ticks", quantile(lat, 0.99), len(lat), note99)
	b.add("allocs_per_run", "allocs", float64(allocs)/float64(instances), int(instances), "per attempt")
	b.add("failed_frac", "fraction", 1-float64(decided)/float64(offered), int(offered), "offered requests not decided in time (shed, deadline, breaker, degraded)")
	b.add("decided_frac", "fraction", float64(decided)/float64(offered), int(offered), "")
	b.addHeap(w, passes)
	return st, nil
}

// liveOptions configures live run i.
func liveOptions(seed int64, i int, reliable bool) livenet.Options {
	return livenet.Options{
		MaxJitter: liveJitter,
		Tick:      liveTick,
		Seed:      mix(seed, 4, i),
		Loss:      liveLoss,
		Reliable:  reliable,
	}
}

func liveParties(inputs []float64) ([]sim.Process, error) {
	procs := make([]sim.Process, len(inputs))
	for j, in := range inputs {
		a, err := core.NewAsyncAA(params(core.ProtoCrash, liveN, liveT), in)
		if err != nil {
			return nil, err
		}
		procs[j] = a
	}
	return procs, nil
}

// checkLive applies the live output check: every party decided before
// the deadline, within ε of each other and inside the inputs' hull.
func (b *bench) checkLive(i int, inputs []float64, res *livenet.Result, err error) {
	b.attempted++
	fail := func(format string, args ...any) {
		b.failed++
		b.problem("live run %d: "+format, append([]any{i}, args...)...)
	}
	if err != nil {
		fail("%v", err)
		return
	}
	if len(res.Undecided) > 0 {
		fail("undecided parties %v", res.Undecided)
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range inputs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	dlo, dhi := math.Inf(1), math.Inf(-1)
	for _, v := range res.Decisions {
		dlo, dhi = math.Min(dlo, v), math.Max(dhi, v)
	}
	tol := 1e-9 * math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
	if dlo < lo-tol || dhi > hi+tol {
		fail("validity: decisions [%v, %v] outside inputs [%v, %v]", dlo, dhi, lo, hi)
	} else if dhi-dlo > taskEps+tol {
		fail("agreement: spread %v > eps %v", dhi-dlo, taskEps)
	}
}

// liveOnce runs live run i untraced and returns its wall and process
// CPU time.
func liveOnce(b *bench, seed int64, i int) (time.Duration, int64, *livenet.Result, error) {
	inputs := liveInputs(seed, i)
	procs, err := liveParties(inputs)
	if err != nil {
		return 0, 0, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), liveRunTimeout)
	defer cancel()
	t0, c0 := time.Now(), cpuNS()
	res, runErr := livenet.Run(ctx, procs, liveOptions(seed, i, true))
	cpu := cpuNS() - c0
	d := time.Since(t0)
	b.checkLive(i, inputs, res, runErr)
	return d, cpu, res, nil
}

// liveState carries the run counter (each run draws fresh inputs) and
// the untraced run times the traced phase compares against.
type liveState struct {
	next  int
	runMS []float64
}

func measureLive(b *bench, seed int64, budget time.Duration) (*liveState, error) {
	st := &liveState{}
	setupWall, setupCPU, err := setupTimes(func() error {
		for k := 0; k < liveWarmRuns; k++ {
			if _, _, _, err := liveOnce(b, seed, st.next); err != nil {
				return err
			}
			st.next++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	attempted0, failed0 := b.attempted, b.failed
	var c costs
	w := newWindow()
	for start := time.Now(); until(start, budget, len(c.wallNS), minTail*10); {
		d, cpu, res, err := liveOnce(b, seed, st.next)
		if err != nil {
			return nil, err
		}
		st.next++
		w.sample()
		if res == nil || res.Messages == 0 {
			continue // counted as failed by checkLive
		}
		c.unit(d, cpu, 1, int(res.Messages))
		c.runWallMS = append(c.runWallMS, float64(d)/1e6)
	}
	allocs := w.allocs()
	st.runMS = c.runWallMS
	runs := len(c.runWallMS)
	failed := b.failed - failed0
	attempted := b.attempted - attempted0
	b.addSetup(setupWall, setupCPU, fmt.Sprintf("%d warm runs", liveWarmRuns))
	b.addCosts(&c, "run")
	// live-lossy's tail is read at p90, whose value is steady; its p99
	// moved by about 2x between runs. p90 is printed even when the
	// sample supports a higher percentile.
	if v, ok := percentile(c.runWallMS, 0.9); !ok {
		b.problem("live: %d runs are too few for p90 (need %d beyond it)", runs, minTail)
	} else if q, _, _ := highestPercentile(c.runWallMS); q != 0.9 {
		b.add("run_p90_ms", "ms", v, runs, "wall, per run")
	}
	b.add("msgs_per_run", "msgs", sum(c.msgs)/float64(runs), runs, "sends incl. retransmits and acks")
	b.add("allocs_per_run", "allocs", float64(allocs)/float64(runs), runs, "")
	b.add("failed_frac", "fraction", float64(failed)/float64(attempted), attempted, "")
	b.add("decided_frac", "fraction", 1-float64(failed)/float64(attempted), attempted, "runs reaching ε-agreement and validity in time")
	// Retransmit and delivery timers of the last runs outlive them (the
	// longest backoff is 2^8 retransmit timeouts, about 0.4 s) and hold
	// their runs' buffers until they fire; let them drain before the
	// window's closing collection counts the live heap.
	time.Sleep(liveDrain)
	b.addHeap(w, runs)
	return st, nil
}
