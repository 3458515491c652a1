// Command aarun executes a single approximate-agreement instance on the
// simulator (or the live goroutine runtime) and prints the outcome. It is
// the quickest way to poke at the protocols:
//
//	aarun -model crash -n 7 -t 3 -inputs 1,2,3,4,5,6,7 -eps 0.01
//	aarun -model witness -n 10 -t 3 -sched splitviews -byz 0:equivocate,1:extreme
//	aarun -model crash -n 5 -t 2 -live
//
// -scenario runs a declarative scenario spec (internal/scenario): one
// string names the scheduler, the fault composition, and the run shape,
// and replaces -n/-t/-sched/-crash/-byz in one go. The strings are the
// same ones the E12 table prints, so any row reproduces from the shell:
//
//	aarun -model crash -scenario "splitviews+crash/n=64,t=31"
//	aarun -model trim -scenario "skew+equivocate/n=64,t=9"
//
// The lossy-network axes compose the same way, and -reliable wraps every
// party in the ack/retransmit transport that survives them (on the live
// runtime, -loss/-dup inject wall-clock loss directly):
//
//	aarun -model crash -scenario "random+loss:0.05+dup:0.1/n=16,t=3" -reliable
//	aarun -model crash -n 5 -t 2 -live -loss 0.1 -reliable
//
// -record FILE captures the run as a replayable incident bundle: the
// scenario, seed, every per-send delivery delay, and a digest of the
// outcome (see internal/incident). -replay FILE re-executes a bundle
// through the recorded delay log and hard-fails on any divergence from the
// recorded digest, naming the first divergent send:
//
//	aarun -model trim -scenario "skew+spam/n=15,t=2" -record out.bundle
//	aarun -replay out.bundle
//
// Under -record, Byzantine names resolve through the scenario registry
// (e.g. "extreme" is the range-relative ExtremeRel, as in scenario specs),
// so the captured run is exactly the one the bundle replays.
//
// -cpuprofile FILE and -memprofile FILE write runtime/pprof CPU and heap
// profiles of the invocation (PERF.md "Profiling").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/aa"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aarun:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("aarun", flag.ContinueOnError)
	prof := profile.Register(fs)
	model := fs.String("model", "crash", "crash | trim | witness | sync")
	n := fs.Int("n", 7, "number of parties")
	t := fs.Int("t", 2, "fault bound")
	eps := fs.Float64("eps", 1e-3, "agreement precision")
	lo := fs.Float64("lo", 0, "promised input range low end")
	hi := fs.Float64("hi", 100, "promised input range high end")
	inputsFlag := fs.String("inputs", "", "comma-separated inputs (default: evenly spaced over the range)")
	schedName := fs.String("sched", aa.SchedRandom, "scheduler: sync|random|skew|partition|splitviews|staggered")
	scenarioFlag := fs.String("scenario", "", `scenario spec, e.g. "skew+equivocate/n=64,t=9"; overrides -n/-t/-sched/-crash/-byz`)
	seed := fs.Int64("seed", 1, "random seed")
	crashFlag := fs.String("crash", "", "crash plans id:afterSends,id:afterSends,...")
	byzFlag := fs.String("byz", "", "byzantine assignments id:behavior,... (silent|extreme|equivocate|spam|amplifier)")
	adaptive := fs.Bool("adaptive", false, "adaptive termination (estimate spread at runtime)")
	reliable := fs.Bool("reliable", false, "wrap parties in the ack/retransmit transport (survives loss/outage/flap)")
	live := fs.Bool("live", false, "run on the goroutine runtime instead of the simulator")
	timeout := fs.Duration("timeout", 30*time.Second, "live-run timeout")
	loss := fs.Float64("loss", 0, "live-run per-send drop probability in [0,1)")
	dup := fs.Float64("dup", 0, "live-run per-send duplication probability in [0,1)")
	record := fs.String("record", "", "capture the run into an incident bundle FILE (simulator only)")
	replayFlag := fs.String("replay", "", "replay an incident bundle FILE and diff against its recorded digest (other flags ignored)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	if *replayFlag != "" {
		return doReplay(*replayFlag)
	}
	if *record != "" && *live {
		return fmt.Errorf("-record needs the deterministic simulator; drop -live")
	}

	if *scenarioFlag != "" {
		sn, st, err := aa.ScenarioShape(*scenarioFlag)
		if err != nil {
			return err
		}
		*n = sn
		if st >= 0 {
			*t = st
		}
	}
	cfg := aa.Config{
		N: *n, T: *t, Epsilon: *eps, Lo: *lo, Hi: *hi, Adaptive: *adaptive,
	}
	switch *model {
	case "crash":
		cfg.Model = aa.ModelCrash
	case "trim":
		cfg.Model = aa.ModelByzantineTrim
	case "witness":
		cfg.Model = aa.ModelByzantineWitness
	case "sync":
		cfg.Model = aa.ModelSynchronous
		cfg.SyncRoundTicks = 20
	default:
		return fmt.Errorf("unknown model %q", *model)
	}

	inputs, err := parseInputs(*inputsFlag, *n, *lo, *hi)
	if err != nil {
		return err
	}

	if *live {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		out, err := aa.RunLive(ctx, cfg, inputs, aa.LiveOptions{
			Seed:     *seed,
			Loss:     *loss,
			Dup:      *dup,
			Reliable: *reliable,
		})
		if err != nil {
			// A timeout still reports the partial progress before failing.
			if out != nil {
				printOutcome(out, cfg)
			}
			return err
		}
		printOutcome(out, cfg)
		return nil
	}

	crashes, err := parseCrashes(*crashFlag)
	if err != nil {
		return err
	}
	byz, err := parseByz(*byzFlag)
	if err != nil {
		return err
	}

	if *record != "" {
		return doRecord(*record, cfg, *model, inputs, recordShape{
			scenario: *scenarioFlag, sched: *schedName,
			n: *n, t: *t, seed: *seed,
			crashes: crashes, byz: byz,
			reliable: *reliable,
		})
	}

	opts := []aa.SimOption{aa.WithSeed(*seed)}
	if *reliable {
		opts = append(opts, aa.WithReliable())
	}
	if *scenarioFlag != "" {
		opts = append(opts, aa.WithScenario(*scenarioFlag))
	} else {
		opts = append(opts, aa.WithScheduler(*schedName))
		for _, c := range crashes {
			opts = append(opts, aa.WithCrash(int(c.Party), c.AfterSends))
		}
		for _, z := range byz {
			opts = append(opts, aa.WithByzantine(int(z.Party), z.Name))
		}
	}

	out, err := aa.Simulate(cfg, inputs, opts...)
	if err != nil {
		return err
	}
	printOutcome(out, cfg)
	if !out.OK() {
		return fmt.Errorf("run failed: agreed=%v valid=%v err=%v", out.Agreed, out.Valid, out.Err)
	}
	return nil
}

func parseInputs(s string, n int, lo, hi float64) ([]float64, error) {
	if s == "" {
		out := make([]float64, n)
		for i := range out {
			if n > 1 {
				out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
			} else {
				out[i] = lo
			}
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("got %d inputs for %d parties", len(parts), n)
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

func parseCrashes(s string) ([]sim.CrashPlan, error) {
	if s == "" {
		return nil, nil
	}
	var out []sim.CrashPlan
	for _, part := range strings.Split(s, ",") {
		var id, after int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &id, &after); err != nil {
			return nil, fmt.Errorf("crash plan %q (want id:afterSends): %w", part, err)
		}
		out = append(out, sim.CrashPlan{Party: sim.PartyID(id), AfterSends: after})
	}
	return out, nil
}

func parseByz(s string) ([]incident.ByzRef, error) {
	if s == "" {
		return nil, nil
	}
	var out []incident.ByzRef
	for _, part := range strings.Split(s, ",") {
		fields := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("byzantine assignment %q (want id:behavior)", part)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("byzantine assignment %q: %w", part, err)
		}
		out = append(out, incident.ByzRef{Party: sim.PartyID(id), Name: fields[1]})
	}
	return out, nil
}

// recordShape carries the adversary wiring -record needs to render a
// canonical scenario string and fault overrides.
type recordShape struct {
	scenario string
	sched    string
	n, t     int
	seed     int64
	crashes  []sim.CrashPlan
	byz      []incident.ByzRef
	reliable bool
}

// doRecord captures the configured run into an incident bundle. With
// -scenario, the spec string (t made explicit) is authoritative for the
// adversary; otherwise a fault-free scenario is synthesized from -sched
// and the -crash/-byz lists become explicit overrides — the flag-path
// scheduler parameterizations match the scenario registry defaults
// exactly, so the captured schedule is the one plain aarun would run.
func doRecord(path string, cfg aa.Config, model string, inputs []float64, shape recordShape) error {
	var scenStr string
	if shape.scenario != "" {
		spec, err := scenario.Parse(shape.scenario)
		if err != nil {
			return err
		}
		scenStr = spec.WithT(shape.t).String()
		shape.crashes, shape.byz = nil, nil
	} else {
		scenStr = scenario.Spec{Sched: shape.sched, N: shape.n, T: shape.t}.String()
	}
	b := &incident.Bundle{
		Name:           strings.TrimSuffix(filepath.Base(path), incident.BundleExt),
		Scenario:       scenStr,
		Protocol:       model,
		Adaptive:       cfg.Adaptive,
		Eps:            cfg.Epsilon,
		Lo:             cfg.Lo,
		Hi:             cfg.Hi,
		SyncRoundTicks: sim.Time(cfg.SyncRoundTicks),
		Seed:           shape.seed,
		Inputs:         inputs,
		Crashes:        shape.crashes,
		Byz:            shape.byz,
		Reliable:       shape.reliable,
	}
	rep, err := incident.Capture(b)
	if err != nil {
		return err
	}
	if err := incident.Save(b, path); err != nil {
		return err
	}
	printOutcome(outcomeFromReport(rep), cfg)
	fmt.Printf("recorded  %s (%d sends, %s)\n", path, len(b.Delays), b.Scenario)
	fmt.Printf("replay    aarun -replay %s\n", path)
	if !rep.OK() {
		return fmt.Errorf("recorded run failed: %s", rep.Failure())
	}
	return nil
}

// doReplay re-executes a bundle against its recorded trace and digest.
func doReplay(path string) error {
	b, err := incident.Load(path)
	if err != nil {
		return err
	}
	fmt.Printf("bundle    %s (%s, %s, seed %d, %d sends)\n",
		b.Name, b.Scenario, b.Protocol, b.Seed, len(b.Delays))
	rep, div, err := incident.Replay(b)
	if err != nil {
		return err
	}
	printOutcome(outcomeFromReport(rep), aa.Config{Epsilon: b.Eps})
	if div != nil {
		return div.Error()
	}
	fmt.Println("replay    matches recorded digest")
	return nil
}

// outcomeFromReport adapts a harness report for printOutcome.
func outcomeFromReport(rep *harness.Report) *aa.Outcome {
	out := &aa.Outcome{
		Values:      make(map[int]float64, len(rep.Result.Decisions)),
		Spread:      rep.FinalSpread,
		Agreed:      rep.AgreementOK,
		Valid:       rep.ValidityOK,
		Rounds:      rep.Result.Rounds(),
		Messages:    rep.Result.Stats.MessagesSent,
		Bytes:       rep.Result.Stats.BytesSent,
		Dropped:     int(rep.Result.Stats.MessagesDropped),
		Duped:       int(rep.Result.Stats.MessagesDuped),
		Retransmits: int(rep.Transport.Retransmits),
		Err:         rep.RunErr,
	}
	if out.Err == nil && len(rep.ProtoErrs) > 0 {
		out.Err = rep.ProtoErrs[0]
	}
	for id, v := range rep.Result.Decisions {
		out.Values[int(id)] = v
	}
	return out
}

func printOutcome(out *aa.Outcome, cfg aa.Config) {
	ids := make([]int, 0, len(out.Values))
	for id := range out.Values {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("party %2d -> %.9g\n", id, out.Values[id])
	}
	fmt.Printf("spread    %.3g (eps %.3g)\n", out.Spread, cfg.Epsilon)
	fmt.Printf("agreed    %v\n", out.Agreed)
	fmt.Printf("valid     %v\n", out.Valid)
	if out.Rounds > 0 {
		fmt.Printf("rounds    %.1f\n", out.Rounds)
	}
	fmt.Printf("messages  %d\n", out.Messages)
	if out.Bytes > 0 {
		fmt.Printf("bytes     %d\n", out.Bytes)
	}
	if out.Dropped > 0 || out.Duped > 0 {
		fmt.Printf("lossy     %d dropped, %d duplicated\n", out.Dropped, out.Duped)
	}
	if out.Retransmits > 0 {
		fmt.Printf("reliable  %d retransmits\n", out.Retransmits)
	}
	if out.Err != nil {
		fmt.Printf("error     %v\n", out.Err)
	}
}
