package sim_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/relnet"
	"repro/internal/sched"
	"repro/internal/sim"
)

// seedRun is one run of TestLazySeedingWarmEqualsFresh: which parties run
// the spam adversary (it draws from its source in Init) and whether the
// honest parties sit on the reliable transport (it draws retransmit
// jitter on every send).
type seedRun struct {
	spam     []sim.PartyID
	reliable bool
	lossy    bool
}

func (r seedRun) String() string {
	return fmt.Sprintf("spam=%v reliable=%v lossy=%v", r.spam, r.reliable, r.lossy)
}

// TestLazySeedingWarmEqualsFresh drives one warm Network through runs in
// which the set of parties that call Rand changes from run to run, and
// checks every run's delivery trace and Result against a freshly built
// Network's. A party seeded in one run and silent in the next must start
// the later run from its own seed, not from where the earlier run left its
// stream. Honest parties in runs without the reliable transport never draw,
// so they must end the run unseeded.
func TestLazySeedingWarmEqualsFresh(t *testing.T) {
	const n, tf = 7, 2
	p := core.Params{Protocol: core.ProtoWitness, N: n, T: tf, Eps: 1e-3, Lo: 0, Hi: 1}
	rounds, err := p.FixedRounds()
	if err != nil {
		t.Fatal(err)
	}
	env := fault.Env{N: n, Rounds: rounds, Lo: p.Lo, Hi: p.Hi}
	runs := []seedRun{
		{spam: []sim.PartyID{0}},
		{spam: []sim.PartyID{5}},
		{spam: []sim.PartyID{2, 6}},
		{reliable: true},
		{reliable: true, lossy: true, spam: []sim.PartyID{3}},
		{},
		{spam: []sim.PartyID{0}},
	}
	var warm *sim.Network
	for i, r := range runs {
		seed := int64(40 + i%2)
		cfg := seedRunConfig(r, n, seed, env)
		if warm == nil {
			warm, err = sim.New(cfg)
		} else {
			err = warm.Reset(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		gotTrace, got := runSeedRun(t, warm, r, p)
		// The config is rebuilt so the fresh run gets its own Byzantine
		// process objects.
		fresh, err := sim.New(seedRunConfig(r, n, seed, env))
		if err != nil {
			t.Fatal(err)
		}
		wantTrace, want := runSeedRun(t, fresh, r, p)
		if gotTrace != wantTrace {
			t.Errorf("run %d (%v): warm trace differs from a fresh network's", i, r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d (%v): warm result %+v, fresh %+v", i, r, got, want)
		}
		for id := sim.PartyID(0); id < n; id++ {
			byz := slices.Contains(r.spam, id)
			if wantSeeded := byz || r.reliable; warm.PartySeeded(id) != wantSeeded {
				t.Errorf("run %d (%v): party %d seeded=%v, want %v", i, r, id, warm.PartySeeded(id), wantSeeded)
			}
		}
	}
}

func seedRunConfig(r seedRun, n int, seed int64, env fault.Env) sim.Config {
	var s sim.Scheduler = &sched.UniformRandom{Min: 1, Max: 40}
	if r.lossy {
		s = &sched.Loss{Inner: &sched.Dup{Inner: s, P: 0.02, MaxExtra: 20}, P: 0.05}
	}
	cfg := sim.Config{N: n, Scheduler: s, Seed: seed}
	if len(r.spam) > 0 {
		cfg.Byzantine = make(map[sim.PartyID]sim.Process, len(r.spam))
		for _, id := range r.spam {
			cfg.Byzantine[id] = fault.Spam{}.New(env)
		}
	}
	return cfg
}

// runSeedRun attaches fresh honest witness parties (wrapped in the
// reliable transport when the run asks for it), runs the network, and
// returns the delivery trace, payload bytes included, and the Result.
func runSeedRun(t *testing.T, net *sim.Network, r seedRun, p core.Params) (string, *sim.Result) {
	t.Helper()
	for i := 0; i < p.N; i++ {
		id := sim.PartyID(i)
		if slices.Contains(r.spam, id) {
			continue
		}
		w := new(core.WitnessAA)
		if err := w.Reset(p, float64(i%2)); err != nil {
			t.Fatal(err)
		}
		var proc sim.Process = w
		if r.reliable {
			proc = relnet.Wrap(w)
		}
		if err := net.SetProcess(id, proc); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	net.SetObserver(func(now sim.Time, env sim.Envelope) {
		fmt.Fprintf(&sb, "%d %d>%d #%d sent=%d %x\n", now, env.From, env.To, env.Seq, env.Sent, env.Data)
	})
	res, err := net.Run()
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	return sb.String(), res
}
