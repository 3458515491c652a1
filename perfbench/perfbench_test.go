package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/relnet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func TestPercentileSampleRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1, 0.5, true},   // the median is always reported
		{99, 0.9, false}, // 9 samples beyond p90
		{100, 0.9, true}, // 10 samples beyond p90
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		v, ok := percentile(xs, c.q)
		if ok != c.want {
			t.Errorf("n=%d q=%g: supported=%v, want %v", c.n, c.q, ok, c.want)
		}
		if got := beyond(c.n, c.q); v != float64(c.n-got) {
			t.Errorf("n=%d q=%g: value %g leaves %d samples beyond it", c.n, c.q, v, got)
		}
	}
	xs := make([]float64, 500)
	if q, _, ok := highestPercentile(xs); !ok || q != 0.9 {
		t.Errorf("500 samples: highest supported percentile %g (ok=%v), want 0.9", q, ok)
	}
	if _, _, ok := highestPercentile(xs[:50]); ok {
		t.Errorf("50 samples support no tail percentile")
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a, err := digest(wl, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := digest(wl, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := digest(wl, heldOutSeed)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: same seed gave digests %x and %x", wl, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds %d and %d gave the same digest %x", wl, defaultSeed, heldOutSeed, a)
		}
	}
}

func TestWrapperForwardsInnerInterfaces(t *testing.T) {
	p := params(core.ProtoCrash, 7, 3)
	async, err := core.NewAsyncAA(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wit, err := core.NewWitnessAA(params(core.ProtoWitness, 7, 2), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	byz := fault.Equivocate{Stretch: 2}.New(fault.Env{N: 7, Rounds: 10, Lo: 0, Hi: 1})
	for name, inner := range map[string]sim.Process{
		"AsyncAA":           async,
		"WitnessAA":         wit,
		"relnet(AsyncAA)":   relnet.Wrap(async),
		"Byzantine process": byz,
	} {
		w, err := wrapParty(inner, &partyTrace{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := ifaceMask(w), ifaceMask(inner); got != want {
			t.Errorf("%s: wrapper interfaces %05b, inner %05b", name, got, want)
		}
	}
	sync, err := core.NewSyncAA(core.Params{Protocol: core.ProtoSync, N: 4, T: 1, Eps: 1e-3, Hi: 1, RoundDuration: 10}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapParty(sync, &partyTrace{}); !errors.Is(err, errUnsupportedParty) {
		t.Errorf("SyncAA (batch and timer): err %v, want errUnsupportedParty", err)
	}
}

func TestCoverageCountsOverlapOnce(t *testing.T) {
	iv := []interval{{10, 20}, {0, 5}, {15, 30}, {40, 41}, {16, 18}}
	if got := coverage(iv); got != 5+20+1 {
		t.Errorf("coverage %d, want 26", got)
	}
	if got := coverage(nil); got != 0 {
		t.Errorf("empty coverage %d", got)
	}
}

// The assembly must reproduce harness.Run's msgs, bytes and decisions,
// traced and untraced, on every sweep-small spec and on a reliable spec.
func TestAssemblyMatchesHarnessRun(t *testing.T) {
	items, _, err := simItems(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := serveConfig(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := harness.SpecFrom(core.Params{Protocol: s.cfg.Protocol, N: s.cfg.N, T: s.cfg.T, Eps: s.cfg.Eps, Lo: s.cfg.Lo, Hi: s.cfg.Hi},
		harness.UniformInputs(s.cfg.N, s.cfg.Lo, s.cfg.Hi, 5), mustParse(t, s.cfg.Scenario+"/n=10,t=3"), 5)
	if err != nil {
		t.Fatal(err)
	}
	lossy.Reliable = true
	items = append(items, simItem{scen: "reliable " + s.cfg.Scenario, spec: lossy})
	asm := &assembly{}
	for _, it := range items {
		rep, err := harness.Run(it.spec)
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeOf(rep.Result, rep.RunErr, rep.Transport)
		for _, traced := range []bool{false, true} {
			r, err := asm.run(it.spec, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", it.scen, traced, err)
			}
			if err := sameOutcome(want, r.out); err != nil {
				t.Errorf("%s traced=%v: %v", it.scen, traced, err)
			}
			if r.out.transport != want.transport {
				t.Errorf("%s traced=%v: transport %+v, want %+v", it.scen, traced, r.out.transport, want.transport)
			}
		}
	}
}

func mustParse(t *testing.T, s string) scenario.Spec {
	t.Helper()
	sc, err := scenario.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// the result line carries, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("declared workload %q is unknown to the program", w.Name)
		}
	}
	var e2e []string
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, e2eMetrics) {
		t.Errorf("end_to_end %v, program prints %v", e2e, e2eMetrics)
	}
	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics declared, program prints %d", len(decl.PerLayer), len(layerMetrics))
	}
	for i, m := range decl.PerLayer {
		if lm := layerMetrics[i]; m.Name != lm.name || m.Unit != lm.unit {
			t.Errorf("per_layer[%d] = %s (%s), program prints %s (%s)", i, m.Name, m.Unit, lm.name, lm.unit)
		}
	}
}
