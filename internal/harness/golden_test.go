package harness

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file pins the simulator's observable behaviour to digests recorded
// in testdata/: one SHA-256 per rendered experiment table (tables.golden)
// and one per delivery trace of the scheduler × fault matrix
// (traces.golden). Set TABLES_REGEN=1 to rewrite both files from the
// current code; do that only after an intentional behaviour change, never
// to hide an unexplained diff.

const (
	tablesGolden = "tables.golden"
	tracesGolden = "traces.golden"
)

// regenGoldens reports whether the golden files should be rewritten.
func regenGoldens() bool { return os.Getenv("TABLES_REGEN") != "" }

// goldenFile is one testdata digest file: "key digest" lines, sorted.
type goldenFile struct {
	name string
	want map[string]string
	got  map[string]string
}

func loadGolden(t *testing.T, name string) *goldenFile {
	t.Helper()
	g := &goldenFile{name: name, want: map[string]string{}, got: map[string]string{}}
	if regenGoldens() {
		return g
	}
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("%v (run with TABLES_REGEN=1 to generate)", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", name, line)
		}
		g.want[key] = digest
	}
	return g
}

// check records a digest and, unless regenerating, compares it to the
// golden one.
func (g *goldenFile) check(t *testing.T, key, digest string) {
	t.Helper()
	g.got[key] = digest
	if regenGoldens() {
		return
	}
	if want, ok := g.want[key]; !ok {
		t.Errorf("%s: no golden digest for %q", g.name, key)
	} else if digest != want {
		t.Errorf("%s: %q digest %s, want %s", g.name, key, digest, want)
	}
}

// finish rewrites the file when regenerating, and otherwise fails on
// golden keys that no check visited (a case silently dropped).
func (g *goldenFile) finish(t *testing.T) {
	t.Helper()
	if !regenGoldens() {
		for key := range g.want {
			if _, ok := g.got[key]; !ok {
				t.Errorf("%s: golden %q was not checked", g.name, key)
			}
		}
		return
	}
	var sb strings.Builder
	for _, key := range slices.Sorted(maps.Keys(g.got)) {
		fmt.Fprintf(&sb, "%s %s\n", key, g.got[key])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", g.name), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote testdata/%s (%d digests)", g.name, len(g.got))
}

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// renderTables renders Experiments(1) with E12 reduced to n ∈ {16, 32}:
// the full E12 sweep exists to measure large n, and the reduced sizes run
// the same driver and aggregation.
func renderTables(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, exp := range Experiments(1) {
		run := exp.Run
		if exp.ID == "E12" {
			run = func() (*trace.Table, error) { return E12LargeNSizes([]int{16, 32}) }
		}
		tbl, err := run()
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
		out[exp.ID] = sb.String()
	}
	return out
}

// TestTablesGolden renders every experiment table once and compares each
// rendering's SHA-256 to testdata/tables.golden. Any change to a delivery
// schedule, a counter, a decision, or an aggregate moves some digest.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment table; run without -short")
	}
	g := loadGolden(t, tablesGolden)
	for id, rendered := range renderTables(t) {
		g.check(t, id, sha(rendered))
	}
	g.finish(t)
}

// deliveryRecord is one observed delivery, in observer order.
type deliveryRecord struct {
	Now      sim.Time
	From, To sim.PartyID
	Seq      uint64
	Len      int
}

// TestCoreEquivalenceTraces runs the full scheduler suite × fault matrix
// with a delivery-trace observer and compares each run's trace, stats,
// and decisions to testdata/traces.golden. The digests were recorded from
// the binary-heap reference core and agreed with every other event core,
// delivery mode, and shard count, so this pins the single execution path
// to the traces of the retired reference paths.
func TestCoreEquivalenceTraces(t *testing.T) {
	g := loadGolden(t, tracesGolden)
	defer g.finish(t)
	faultKinds := []string{"", "crash", "silent", "extreme", "equivocate", "spam", "amplifier"}
	for _, faultKind := range faultKinds {
		// Crash-kind (and fault-free) runs use the crash protocol at its
		// bound; Byzantine kinds need a Byzantine-tolerant protocol — the
		// witness protocol, whose RBC traffic is the hardest queue load.
		p := core.Params{Protocol: core.ProtoCrash, N: 9, T: 4, Eps: 1e-3, Lo: 0, Hi: 1}
		var faults []string
		switch faultKind {
		case "":
		case "crash":
			faults = []string{"crash"}
		default:
			p = core.Params{Protocol: core.ProtoWitness, N: 7, T: 2, Eps: 1e-3, Lo: 0, Hi: 1}
			faults = []string{faultKind}
		}
		for _, scen := range scenario.Suite(p.N, p.T, faults...) {
			name := scen.String()
			if faultKind == "" {
				name = scen.Sched + "+none"
			}
			t.Run(name, func(t *testing.T) {
				spec, err := SpecFrom(p, BimodalInputs(p.N, 0, 1), scen, 11)
				if err != nil {
					t.Fatalf("%s: %v", scen, err)
				}
				checkTrace(t, g, name, spec)
			})
		}
	}
	// Reliable lossy runs: the ack/retransmit transport sends many
	// point-to-point frames and arms many retransmit timers per delivery,
	// so these traces pin the order in which the batched flush schedules
	// a tick's deferred ops. The crash rows are serve-lossy's shape; the
	// witness row adds reliable-broadcast traffic on top.
	for _, rc := range []struct {
		proto core.Protocol
		scen  string
	}{
		{core.ProtoCrash, "random+loss:0.05+dup:0.02/n=10,t=3"},
		{core.ProtoCrash, "random+crash+loss:0.05+dup:0.02/n=10,t=3"},
		{core.ProtoWitness, "random+loss:0.05+dup:0.02/n=10,t=3"},
	} {
		name := "reliable-" + rc.proto.String() + "/" + rc.scen
		t.Run(name, func(t *testing.T) {
			scen := scenario.MustParse(rc.scen)
			p := core.Params{Protocol: rc.proto, N: scen.N, T: scen.T, Eps: 1e-3, Lo: 0, Hi: 100}
			spec, err := SpecFrom(p, BimodalInputs(p.N, 0, 100), scen, 17)
			if err != nil {
				t.Fatalf("%s: %v", scen, err)
			}
			spec.Reliable = true
			spec.MaxEvents = 20_000_000
			checkTrace(t, g, name, spec)
		})
	}
}

// checkTrace runs spec with a delivery-trace observer and checks the
// trace and result digest against the golden file under key.
func checkTrace(t *testing.T, g *goldenFile, key string, spec Spec) {
	t.Helper()
	var trace []deliveryRecord
	spec.Observer = func(now sim.Time, env sim.Envelope) {
		trace = append(trace, deliveryRecord{
			Now: now, From: env.From, To: env.To, Seq: env.Seq, Len: len(env.Data),
		})
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if len(trace) == 0 {
		t.Fatal("empty delivery trace")
	}
	g.check(t, key, traceDigest(trace, rep.Result))
}

// traceDigest hashes a delivery trace plus the run's result.
func traceDigest(trace []deliveryRecord, res *sim.Result) string {
	var sb strings.Builder
	for _, r := range trace {
		fmt.Fprintf(&sb, "%d %d %d %d %d\n", r.Now, r.From, r.To, r.Seq, r.Len)
	}
	writeResult(&sb, res)
	return sha(sb.String())
}

// writeResult renders every field of a simulator result: stats, finish
// time, max honest delay, honest set, then decisions by party id.
func writeResult(sb *strings.Builder, res *sim.Result) {
	fmt.Fprintf(sb, "stats=%+v finish=%d maxdelay=%d honest=%v\n",
		res.Stats, res.FinishTime, res.MaxHonestDelay, res.Honest)
	for _, id := range slices.Sorted(maps.Keys(res.Decisions)) {
		fmt.Fprintf(sb, "%d %v %d\n", id, res.Decisions[id], res.DecidedAt[id])
	}
}
