package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// This file pins the run-context recycling contract from two sides:
//
//   - Equivalence: one warm context running a mixed-shape spec list reports
//     exactly what a fresh context per spec does. Together with the
//     determinism tests this proves Reset is observably equivalent to New
//     across the whole stack (simulator, protocols, RBC, relnet).
//   - Economy: a warm context executes full protocol runs with zero
//     steady-state heap allocations on the reused-report path.

// reportString renders every field of a report, so two reports compare
// equal exactly when their strings do.
func reportString(rep *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "err=%v proto=%v hull=[%v,%v] spread=%v->%v valid=%v agree=%v\n",
		rep.RunErr, rep.ProtoErrs, rep.HullLo, rep.HullHi, rep.InitialSpread, rep.FinalSpread,
		rep.ValidityOK, rep.AgreementOK)
	fmt.Fprintf(&sb, "transport=%+v checkpoints=%x trajectory=%v\n", rep.Transport, rep.Checkpoints, rep.Trajectory)
	writeResult(&sb, rep.Result)
	return sb.String()
}

// checkWarmEqualsFresh runs specs in order through one shared warm context
// and each through its own NewRunContext, and fails on any report diff.
func checkWarmEqualsFresh(t *testing.T, labels []string, specs []Spec) {
	t.Helper()
	warm := NewRunContext()
	for i, spec := range specs {
		got, err := warm.Run(spec)
		if err != nil {
			t.Fatalf("%s (warm): %v", labels[i], err)
		}
		gotS := reportString(got)
		want, err := NewRunContext().Run(spec)
		if err != nil {
			t.Fatalf("%s (fresh): %v", labels[i], err)
		}
		if wantS := reportString(want); gotS != wantS {
			t.Errorf("%s: warm context diverges from fresh:\n--- fresh ---\n%s--- warm ---\n%s", labels[i], wantS, gotS)
		}
	}
}

// TestRunContextReuseByteIdentical drives one context through changes of
// transport, restart plan, and trajectory recording, and checks every
// report against a fresh context's. The list opens with a witness run so
// that each checked transport, restart, or trajectory run starts on a
// context last used by a run of a different shape. Any state leaking
// across a Reset — in the simulator, a protocol party, an RBC slab, or a
// relnet link — would perturb some run's schedule or decision and surface
// as a report diff.
func TestRunContextReuseByteIdentical(t *testing.T) {
	checkReuseCases(t, []reuseCase{
		{core.Params{Protocol: core.ProtoWitness, N: 7, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}, "splitviews/n=7,t=2", false, false},
		{core.Params{Protocol: core.ProtoCrash, N: 10, T: 4, Eps: 1e-3, Lo: 0, Hi: 1}, "random+loss:0.05/n=10,t=4", true, false},
		{core.Params{Protocol: core.ProtoCrash, N: 9, T: 2, Eps: 1e-3, Lo: 0, Hi: 1, Adaptive: true}, "random+recover:2:50:30/n=9,t=2", true, false},
		{core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}, "splitviews+amplifier/n=15,t=2", false, true},
		{core.Params{Protocol: core.ProtoCrash, N: 34, T: 16, Eps: 1e-3, Lo: 0, Hi: 1}, "random+crash/n=34,t=16", false, false},
		{core.Params{Protocol: core.ProtoCrash, N: 9, T: 4, Eps: 1e-3, Lo: 0, Hi: 1}, "random+crash/n=9,t=4", false, false},
	})
}

// reuseCase is one run of a warm-versus-fresh spec list.
type reuseCase struct {
	p        core.Params
	scen     string
	reliable bool
	traj     bool
}

// checkReuseCases builds a spec per case (seed 23, bimodal inputs) and
// checks the list with checkWarmEqualsFresh.
func checkReuseCases(t *testing.T, cases []reuseCase) {
	t.Helper()
	var labels []string
	var specs []Spec
	for _, c := range cases {
		spec, err := SpecFrom(c.p, BimodalInputs(c.p.N, 0, 1), scenario.MustParse(c.scen), 23)
		if err != nil {
			t.Fatalf("%s: %v", c.scen, err)
		}
		spec.Reliable = c.reliable
		spec.RecordTrajectory = c.traj
		labels = append(labels, c.scen)
		specs = append(specs, spec)
	}
	checkWarmEqualsFresh(t, labels, specs)
}

// TestRunContextSurvivesShapeChanges drives one context through runs that
// change protocol, n, and fault composition between every consecutive
// pair — the E12 usage pattern — so a leak across a shape change is
// reported on its own.
func TestRunContextSurvivesShapeChanges(t *testing.T) {
	checkReuseCases(t, []reuseCase{
		{core.Params{Protocol: core.ProtoCrash, N: 9, T: 4, Eps: 1e-3, Lo: 0, Hi: 1}, "random+crash/n=9,t=4", false, false},
		{core.Params{Protocol: core.ProtoWitness, N: 7, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}, "splitviews/n=7,t=2", false, false},
		{core.Params{Protocol: core.ProtoCrash, N: 17, T: 8, Eps: 1e-3, Lo: 0, Hi: 1}, "skew+crash/n=17,t=8", false, false},
		{core.Params{Protocol: core.ProtoWitness, N: 13, T: 4, Eps: 1e-3, Lo: 0, Hi: 1}, "partition+equivocate/n=13,t=4", false, false},
		{core.Params{Protocol: core.ProtoSync, N: 9, T: 2, Eps: 1e-3, Lo: 0, Hi: 1, RoundDuration: 10}, "sync:5/n=9,t=2", false, false},
		{core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}, "staggered+extreme/n=15,t=2", false, true},
	})
}

// TestRunContextReuseByteIdenticalLargeN is the large-n arm: the lists
// above never engage the calendar queue's overflow migration, multi-block
// payload turnover, or the party-pool shrink path the way n ≥ 64 message
// volumes do. The whole E12 run list at n ∈ {64, 128}, in table order,
// runs through one warm context and is checked against fresh contexts.
// That order grows the context from n=64 to n=128 on the crash protocol,
// then shrinks it back to n=64 for the byztrim composites with Byzantine
// faults, so the shrink path and a protocol switch at large n are both
// exercised.
func TestRunContextReuseByteIdenticalLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a large-n sweep twice; run without -short")
	}
	rows, specs, err := e12LargeNSpecs([]int{64, 128})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(rows))
	for i, r := range rows {
		labels[i] = r.proto.String() + " " + r.scen.String()
	}
	checkWarmEqualsFresh(t, labels, specs)
}

// TestRunReusedAllocs pins the tentpole economy claim: after a one-run
// warm-up, a context's reused-report Run performs zero steady-state heap
// allocations for the crash, trim, and witness protocols. 200 measured
// runs amortize away the residual warm-up effects (map geometry, slice
// growth), which testing.AllocsPerRun's integer average then floors.
func TestRunReusedAllocs(t *testing.T) {
	cases := []struct {
		name     string
		p        core.Params
		scen     string
		reliable bool
	}{
		{"crash-aa", core.Params{Protocol: core.ProtoCrash, N: 10, T: 4, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews+crash/n=10,t=4", false},
		{"byztrim-aa", core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews/n=15,t=2", false},
		{"witness-aa", core.Params{Protocol: core.ProtoWitness, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews/n=10,t=3", false},
		// The reliable-transport wrapper recycles its link state through
		// Reset (dedup maps survive the rcv reslice), so the ack/retransmit
		// path rides the same zero-alloc budget as the raw one.
		{"crash-aa-reliable", core.Params{Protocol: core.ProtoCrash, N: 10, T: 4, Eps: 1e-3, Lo: 0, Hi: 1},
			"random+loss:0.05/n=10,t=4", true},
		// n=34 multicast storms make 1156-event ticks: the batched
		// delivery path's staging, deferred ops, and iterator recycle too.
		{"crash-aa-dense", core.Params{Protocol: core.ProtoCrash, N: 34, T: 16, Eps: 1e-3, Lo: 0, Hi: 1},
			"random+crash/n=34,t=16", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := SpecFrom(c.p, BimodalInputs(c.p.N, 0, 1), scenario.MustParse(c.scen), 7)
			if err != nil {
				t.Fatal(err)
			}
			spec.Reliable = c.reliable
			ctx := NewRunContext()
			if rep, err := ctx.Run(spec); err != nil {
				t.Fatalf("warm-up failed: %v", err)
			} else if !rep.OK() {
				t.Fatalf("warm-up run failed: %s", rep.Failure())
			}
			var runErr error
			var runFail string
			allocs := testing.AllocsPerRun(200, func() {
				rep, err := ctx.Run(spec)
				switch {
				case err != nil:
					runErr = err
				case !rep.OK():
					runFail = rep.Failure()
				}
			})
			if runErr != nil {
				t.Fatalf("run failed: %v", runErr)
			}
			if runFail != "" {
				t.Fatalf("run failed: %s", runFail)
			}
			if allocs != 0 {
				t.Errorf("warm steady state allocates %.2f/run, want 0", allocs)
			}
		})
	}
}

// TestByzRunReusedAllocs pins the Byzantine arm of the economy claim:
// behavior processes are pooled through the run context (fault.Renewer)
// and encode into reusable scratch, so a warm Byzantine run — scripted
// one-shot attackers and the reactive amplifier alike, on both the trim
// and the witness protocol — performs zero steady-state heap allocations,
// exactly like the fault-free path.
func TestByzRunReusedAllocs(t *testing.T) {
	cases := []struct {
		name string
		p    core.Params
		scen string
	}{
		{"byztrim-scripted", core.Params{Protocol: core.ProtoByzTrim, N: 22, T: 3, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews+extreme+equivocate+spam/n=22,t=3"},
		{"byztrim-amplifier", core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews+amplifier/n=15,t=2"},
		{"witness-equivocate", core.Params{Protocol: core.ProtoWitness, N: 10, T: 3, Eps: 1e-3, Lo: 0, Hi: 1},
			"splitviews+equivocate+silent/n=10,t=3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := SpecFrom(c.p, BimodalInputs(c.p.N, 0, 1), scenario.MustParse(c.scen), 7)
			if err != nil {
				t.Fatal(err)
			}
			ctx := NewRunContext()
			if rep, err := ctx.Run(spec); err != nil {
				t.Fatalf("warm-up failed: %v", err)
			} else if !rep.OK() {
				t.Fatalf("warm-up run failed: %s", rep.Failure())
			}
			var runErr error
			var runFail string
			allocs := testing.AllocsPerRun(100, func() {
				rep, err := ctx.Run(spec)
				switch {
				case err != nil:
					runErr = err
				case !rep.OK():
					runFail = rep.Failure()
				}
			})
			if runErr != nil {
				t.Fatalf("run failed: %v", runErr)
			}
			if runFail != "" {
				t.Fatalf("run failed: %s", runFail)
			}
			if allocs != 0 {
				t.Errorf("warm Byzantine steady state allocates %.2f/run, want 0", allocs)
			}
		})
	}
}

// TestTrajectoryReusedAllocs pins the trajectory-recording arm (the E5
// path): the observer closure is cached on the context and the trajectory
// storage is preallocated from the round budget, so warm sampled runs
// allocate nothing.
func TestTrajectoryReusedAllocs(t *testing.T) {
	p := core.Params{Protocol: core.ProtoByzTrim, N: 15, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}
	spec, err := SpecFrom(p, BimodalInputs(p.N, 0, 1), scenario.MustParse("splitviews+amplifier/n=15,t=2"), 7)
	if err != nil {
		t.Fatal(err)
	}
	spec.RecordTrajectory = true
	ctx := NewRunContext()
	rep, err := ctx.Run(spec)
	if err != nil {
		t.Fatalf("warm-up failed: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("warm-up run failed: %s", rep.Failure())
	}
	if len(rep.Trajectory) == 0 {
		t.Fatal("no trajectory recorded")
	}
	var runErr error
	allocs := testing.AllocsPerRun(100, func() {
		if rep, err := ctx.Run(spec); err != nil {
			runErr = err
		} else if len(rep.Trajectory) == 0 {
			runErr = errNoTrajectory
		}
	})
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	if allocs != 0 {
		t.Errorf("warm trajectory steady state allocates %.2f/run, want 0", allocs)
	}
}

var errNoTrajectory = errors.New("no trajectory recorded")
