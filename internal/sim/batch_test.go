package sim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// This file pins the run loop to golden run digests recorded from an
// independent per-envelope reference loop before it was removed:
// identical delivery traces, stats, decisions, and errors across
// schedulers (including rng-consuming ones), crash plans, timers, dense
// n=64 ticks, mid-tick run completion, and event-budget aborts — the
// simulator-level form of the golden tables in internal/harness.

// chattyProc reacts to every delivery with a point-to-point reply and a
// periodic multicast, uses a timer, and decides after a message quota — a
// dense mix of every API call that schedules an event.
type chattyProc struct {
	api   API
	need  int
	got   int
	burst int
	buf   [3]byte
}

func (p *chattyProc) Init(api API) {
	p.api = api
	p.buf = [3]byte{byte(api.ID()), 0, 0}
	api.Multicast(p.buf[:])
	api.SetTimer(7, 42)
}

func (p *chattyProc) Deliver(from PartyID, data []byte) {
	p.got++
	if p.got >= p.need {
		p.api.Decide(float64(p.api.ID()) + 0.5)
		return
	}
	p.buf[1] = byte(p.got)
	p.api.Send(from, p.buf[:])
	if p.got%5 == 0 {
		p.api.Multicast(p.buf[:])
	}
}

func (p *chattyProc) OnTimer(tag uint64) {
	p.burst++
	if p.burst < 3 {
		p.buf[2] = byte(p.burst)
		p.api.Multicast(p.buf[:])
		p.api.SetTimer(5, tag)
	}
}

// batchRecord is one observed delivery.
type batchRecord struct {
	Now      Time
	From, To PartyID
	Seq      uint64
	Len      int
}

// runBatchTrace executes a chatty mesh under the given scheduler and
// returns the delivery trace, result, and run error.
func runBatchTrace(t *testing.T, sched Scheduler, mut func(*Config)) ([]batchRecord, *Result, error) {
	t.Helper()
	cfg := Config{N: 6, Scheduler: sched, Seed: 11}
	if mut != nil {
		mut(&cfg)
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var trace []batchRecord
	net.SetObserver(func(now Time, env Envelope) {
		trace = append(trace, batchRecord{Now: now, From: env.From, To: env.To, Seq: env.Seq, Len: len(env.Data)})
	})
	for i := 0; i < cfg.N; i++ {
		if _, isByz := cfg.Byzantine[PartyID(i)]; isByz {
			continue
		}
		if err := net.SetProcess(PartyID(i), &chattyProc{need: 40}); err != nil {
			t.Fatal(err)
		}
	}
	res, runErr := net.Run()
	return trace, res, runErr
}

// TestBatchModeTraceEquivalence checks each run's delivery trace, stats,
// and decisions against the per-envelope reference loop's golden digest,
// across a scheduler matrix that includes shared-rng draws
// (UniformRandom-style) and crash plans that truncate multicasts mid-tick.
func TestBatchModeTraceEquivalence(t *testing.T) {
	scheds := map[string]func() Scheduler{
		"const":  func() Scheduler { return constDelay{d: 5} },
		"random": func() Scheduler { return rngSched{max: 9} },
		"skewed": func() Scheduler { return fromSched{} },
	}
	muts := map[string]func(*Config){
		"fault-free": nil,
		"crash": func(cfg *Config) {
			cfg.Crashes = []CrashPlan{{Party: 1, AfterSends: 9}, {Party: 4, AfterSends: 20}}
		},
		// n=64 multicast storms make 4096-event ticks, far past the
		// sparse-tick cutoff.
		"crash-n64": func(cfg *Config) {
			cfg.N = 64
			cfg.Crashes = []CrashPlan{{Party: 3, AfterSends: 70}, {Party: 40, AfterSends: 130}}
		},
	}
	for sname, mk := range scheds {
		for mname, mut := range muts {
			t.Run(sname+"/"+mname, func(t *testing.T) {
				trace, res, runErr := runBatchTrace(t, mk(), mut)
				if len(trace) == 0 {
					t.Fatal("empty delivery trace")
				}
				checkGolden(t, "trace/"+sname+"/"+mname, runDigest(trace, res, runErr))
			})
		}
	}
}

// goldenRuns holds the runDigest of every case in this file and in
// restart_test.go, recorded from the per-envelope reference loop.
var goldenRuns = map[string]string{
	"trace/const/fault-free":  "3d95c8103ad354cb95e59aa3e3557262e77bf27d2c40262b9e19e1e152a77e78",
	"trace/const/crash":       "a8307f8804a0ee31c64b77e27348fb7dd0a46ef8f85286a0902fcb589f53be22",
	"trace/const/crash-n64":   "235dd5bec58c0cccf7fd619407eaafad3d8b47cfe50d6b5bb624eac0b8ffd20f",
	"trace/random/fault-free": "a7f186ff70c4b53d0621ea888a0b596ef108f8a7c3b239c0197da0d33e956b1c",
	"trace/random/crash":      "c6a4f557e0de58c90c82f7aa38c4fc55d2edc620c4c3569e9116f5e1015f6ec7",
	"trace/random/crash-n64":  "f1606c6d03cc51c06a0ba85482c163fc7f8d107161433d7e0e8e99457939af74",
	"trace/skewed/fault-free": "16ead3d24af66774738055d1ba131ed7be3bbf1dd187bce96de7bcfe514114ba",
	"trace/skewed/crash":      "02aa5969ecc76caac609f8389b04f3c6b4f1165f362fe44a47a472205b8fadb8",
	"trace/skewed/crash-n64":  "1600a03b742432dc577ee73aafe98e14d493ae9f63f68546c028be3b2a2d3a47",
	"budget/1":                "87418838908b0da18fb84055e94b87d128e34a67cbf45d91d436b76e8ff74fe6",
	"budget/7":                "942ad9ebb6273aa84750332379c3b64d5b4628de45d38493a263f957052e283c",
	"budget/23":               "8c932e1bca0340b88cdc20baa9d22b4cba8c8e655ddf93ca879d4ff0c3f587a2",
	"budget/50":               "b0f07b899776554c5c1f929ff75455cc32a1b535be0a3f79595a177747cef814",
	"midtick":                 "6efc1c61404521736b6c3f0d36739f5aabb88f1f5e65f69d95001b979dd22454",
	"restart":                 "99258ff8e32e2dc3f39de6a3dfcb935b6da39a1a57177af98959486920e7236b",
	"restart/checkpoints":     "[2a13476f6431c31e]",
}

// checkGolden fails the test when a run's digest differs from its
// recorded golden.
func checkGolden(t *testing.T, key, got string) {
	t.Helper()
	if want := goldenRuns[key]; got != want {
		t.Errorf("%s: run digest %s, want golden %s", key, got, want)
	}
}

// runDigest hashes a run's delivery trace, result, and error into a hex
// SHA-256: one string that changes if any delivery, counter, decision, or
// decision time does.
func runDigest(trace []batchRecord, res *Result, runErr error) string {
	h := sha256.New()
	for _, r := range trace {
		fmt.Fprintf(h, "%d %d %d %d %d\n", r.Now, r.From, r.To, r.Seq, r.Len)
	}
	fmt.Fprintf(h, "err=%v stats=%+v finish=%d maxdelay=%d honest=%v\n",
		runErr, res.Stats, res.FinishTime, res.MaxHonestDelay, res.Honest)
	for _, id := range slices.Sorted(maps.Keys(res.Decisions)) {
		fmt.Fprintf(h, "%d %v %d\n", id, res.Decisions[id], res.DecidedAt[id])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// rngSched draws every delay from the shared rng, so the trace pins the
// order in which sends are scheduled, not only the order of deliveries.
type rngSched struct{ max int64 }

func (s rngSched) Delay(_ Envelope, _ Time, rng *rand.Rand) Time {
	return 1 + Time(rng.Int63n(s.max))
}

// fromSched gives each sender a different deterministic delay, spreading a
// multicast's envelopes across many ticks (staggered-style).
type fromSched struct{}

func (fromSched) Delay(env Envelope, _ Time, _ *rand.Rand) Time {
	return 1 + Time(env.From)*2
}

// TestBatchModeBudgetEquivalence pins the event-budget abort: the run
// must abort at the exact event the reference loop did, with identical
// partial stats.
func TestBatchModeBudgetEquivalence(t *testing.T) {
	for _, budget := range []int{1, 7, 23, 50} {
		mut := func(cfg *Config) { cfg.MaxEvents = budget }
		trace, res, runErr := runBatchTrace(t, constDelay{d: 3}, mut)
		if !errors.Is(runErr, ErrEventBudget) {
			t.Fatalf("budget %d: run error %v, want ErrEventBudget", budget, runErr)
		}
		checkGolden(t, fmt.Sprintf("budget/%d", budget), runDigest(trace, res, runErr))
	}
}

// TestBatchModeMidTickCompletion makes a run end in the middle of a dense
// tick — all parties decide at the same tick under a constant-delay
// scheduler — so the run must stop at the completing event exactly as the
// reference loop did: its stats and send stream match the golden.
func TestBatchModeMidTickCompletion(t *testing.T) {
	net, err := New(Config{N: 8, Scheduler: constDelay{d: 4}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var trace []batchRecord
	net.SetObserver(func(now Time, env Envelope) {
		trace = append(trace, batchRecord{Now: now, From: env.From, To: env.To, Seq: env.Seq, Len: len(env.Data)})
	})
	for i := 0; i < 8; i++ {
		if err := net.SetProcess(PartyID(i), &chattyProc{need: 25}); err != nil {
			t.Fatal(err)
		}
	}
	res, runErr := net.Run()
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	checkGolden(t, "midtick", runDigest(trace, res, runErr))
}

// TestRecycledNetworkEquivalence pins Reset's recycling of the tick
// buffer, payload arena, and party records: a network that just ran a
// dense n=12 mesh and is Reset to a new shape must reproduce a fresh
// network's run exactly.
func TestRecycledNetworkEquivalence(t *testing.T) {
	net, err := New(Config{N: 12, Scheduler: constDelay{d: 5}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{12, 12, 6, 12} {
		cfg := Config{N: n, Scheduler: constDelay{d: 5}, Seed: 11}
		if err := net.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		var trace []batchRecord
		net.SetObserver(func(now Time, env Envelope) {
			trace = append(trace, batchRecord{Now: now, From: env.From, To: env.To, Seq: env.Seq, Len: len(env.Data)})
		})
		for i := 0; i < n; i++ {
			if err := net.SetProcess(PartyID(i), &chattyProc{need: 40}); err != nil {
				t.Fatal(err)
			}
		}
		res, runErr := net.Run()
		freshTrace, freshRes, freshErr := runBatchTrace(t, constDelay{d: 5}, func(c *Config) { c.N = n })
		if got, want := runDigest(trace, res, runErr), runDigest(freshTrace, freshRes, freshErr); got != want {
			t.Fatalf("n=%d: recycled network diverges from fresh (digest %s, want %s)", n, got, want)
		}
	}
}
