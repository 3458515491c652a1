package serve

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Options are the robustness-envelope knobs shared by both engines.
type Options struct {
	// Workers bounds concurrent agreement instances (the worker pool).
	Workers int
	// QueueDepth bounds the admission queue; a full queue evicts the
	// lowest-priority queued request or sheds the arrival.
	QueueDepth int
	// ShedWatermark is the queue depth above which priority-0 arrivals are
	// shed pre-emptively. Defaults to 3/4 of QueueDepth.
	ShedWatermark int
	// BucketFill is the token-bucket admission rate in requests per
	// kilotick; 0 disables rate admission. BucketBurst is the bucket
	// ceiling (default 16).
	BucketFill, BucketBurst float64
	// RetryBudget is the number of re-attempts after a failed instance;
	// RetryBase is the first backoff in ticks (doubling per retry,
	// relnet-style). A retry that cannot finish before the request's
	// deadline is never scheduled.
	RetryBudget int
	RetryBase   int64
	// BreakerThreshold consecutive instance failures trip a cohort's
	// circuit breaker open; it half-opens after BreakerCooldown ticks.
	// Threshold 0 disables the breaker.
	BreakerThreshold int
	BreakerCooldown  int64
}

// withDefaults fills unset knobs.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.ShedWatermark <= 0 || o.ShedWatermark > o.QueueDepth {
		o.ShedWatermark = o.QueueDepth * 3 / 4
	}
	if o.BucketBurst <= 0 {
		o.BucketBurst = 16
	}
	if o.RetryBudget < 0 {
		o.RetryBudget = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 32
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 500
	}
	return o
}

// Config describes the agreement instances the service runs: one
// approximate-agreement execution per admitted request.
type Config struct {
	// Protocol, N, T, Eps, Lo, Hi, Adaptive are the core.Params the
	// instance runs with.
	Protocol    core.Protocol
	N, T        int
	Eps, Lo, Hi float64
	Adaptive    bool
	// Scenario is the base scenario token string without the /n=,t= params
	// — scheduler plus standing fault axes, e.g. "random" or
	// "random+loss:0.05". Disturbance windows from the workload splice
	// their own axes (outage, flap) on top per request.
	Scenario string
	// Reliable wraps honest parties in the ack/retransmit transport.
	Reliable bool
	// MaxEvents overrides the per-instance simulator event budget.
	MaxEvents int
	// Seed drives instance inputs and tie-breaking; per-request seeds are
	// derived from it and the workload's request seeds.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N, c.T = 10, 3
	}
	if c.Eps == 0 {
		c.Eps = 1e-3
	}
	if c.Lo == 0 && c.Hi == 0 {
		c.Lo, c.Hi = 0, 100
	}
	if c.Scenario == "" {
		c.Scenario = "random"
	}
	return c
}

func (c Config) params() core.Params {
	return core.Params{
		Protocol: c.Protocol, N: c.N, T: c.T,
		Eps: c.Eps, Lo: c.Lo, Hi: c.Hi, Adaptive: c.Adaptive,
	}
}

// composeScenario splices a disturbance-window axis into the base scenario
// and pins explicit n and t (the form incident bundles require).
func composeScenario(cfg Config, kind workload.WindowKind, inWindow bool) string {
	base := cfg.Scenario
	if inWindow {
		switch kind {
		case workload.WindowOutage:
			// A regional outage: the last t parties black out together for
			// a window of the instance's virtual time.
			base += fmt.Sprintf("+outage:%d:40:160", cfg.T)
		case workload.WindowFlapStorm:
			base += "+flap:60"
		}
	}
	return fmt.Sprintf("%s/n=%d,t=%d", base, cfg.N, cfg.T)
}

// attemptSeed derives the instance seed for one attempt of one request.
func attemptSeed(cfg Config, req workload.Request, attempt int) int64 {
	return cfg.Seed ^ req.Seed ^ (int64(attempt)+1)*-0x61c8864680b583eb
}

// RequestOutcome is one request's terminal record.
type RequestOutcome struct {
	ID       int
	Cohort   int
	Outcome  Outcome
	Arrival  int64
	Finish   int64 // tick the terminal outcome was recorded
	Latency  int64 // Finish - Arrival for decided/degraded; 0 otherwise
	Attempts int
	// Scenario and Seed identify the last instance attempt (for incident
	// capture); empty/0 when no attempt ran.
	Scenario string
	Seed     int64
	// Partial: the last failed attempt still decided some parties.
	Partial bool
	// Tripped: the final attempt tripped the cohort's breaker open.
	Tripped bool
}

// Summary is one engine run's service-level result.
type Summary struct {
	Counters
	Outcomes []RequestOutcome
	// Horizon is the workload horizon; End is the tick the last outcome
	// landed (>= Horizon under backlog drain).
	Horizon, End int64
	// Instances counts instance attempts that actually ran; InstanceMsgs
	// totals their protocol messages (retransmits included), so transport
	// cost shows up even when every instance still decides.
	Instances, InstanceMsgs int64

	decidedLat []int64
}

// MsgsPerInstance is the mean message cost of one instance attempt.
func (s *Summary) MsgsPerInstance() float64 {
	if s.Instances == 0 {
		return 0
	}
	return float64(s.InstanceMsgs) / float64(s.Instances)
}

// Goodput is decided requests per kilotick of elapsed service time.
func (s *Summary) Goodput() float64 {
	end := s.End
	if end < s.Horizon {
		end = s.Horizon
	}
	if end <= 0 {
		return 0
	}
	return float64(s.Decided) * 1000 / float64(end)
}

// LatencyP returns the q-quantile (0 < q <= 1) of decided-request latency
// in ticks, or 0 when nothing decided.
func (s *Summary) LatencyP(q float64) int64 {
	if len(s.decidedLat) == 0 {
		return 0
	}
	i := int(q*float64(len(s.decidedLat))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.decidedLat) {
		i = len(s.decidedLat) - 1
	}
	return s.decidedLat[i]
}

// runningInst is one instance occupying a worker until its virtual
// completion tick. The agreement run itself executes synchronously at
// dispatch (it is a simulation); the request's drawn service time is the
// virtual duration the worker is held for.
type runningInst struct {
	p       *pending
	done    int64
	ok      bool
	partial bool
}

// Simulate runs the workload through the serving envelope in virtual time:
// deterministic, single-threaded, byte-identical across runs for a given
// (workload, config, options, seed). Every instance executes for real on
// the pooled harness run contexts; scheduling, admission, deadlines,
// retries, and breakers all advance on the workload's tick clock.
func Simulate(w workload.Spec, cfg Config, opts Options, horizon int64) (*Summary, error) {
	cfg = cfg.withDefaults()
	opts = opts.withDefaults()
	p := cfg.params()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("serve: config: %w", err)
	}
	// Pre-resolve every scenario variant the workload can demand, so a bad
	// base scenario fails before the first request.
	variants := map[string]scenario.Spec{}
	for _, s := range scenarioVariants(cfg, w) {
		scen, err := scenario.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		variants[s] = scen
	}

	reqs := w.Generate(cfg.Seed, horizon)
	env := newEnvelope(opts, len(w.EffectiveCohorts()))
	q := &reqQueue{}
	sum := &Summary{Horizon: horizon}
	free := opts.Workers
	var running []runningInst

	finish := func(p *pending, o Outcome, now int64, partial, tripped bool) {
		env.c.count(o)
		ro := RequestOutcome{
			ID: p.req.ID, Cohort: p.req.Cohort, Outcome: o,
			Arrival: p.req.Arrival, Finish: now,
			Attempts: p.attempt, Partial: partial, Tripped: tripped,
		}
		if p.attempt > 0 {
			ro.Scenario = p.scenario
			ro.Seed = p.seed
		}
		if o == OutcomeDecided || o == OutcomeDegraded {
			ro.Latency = now - p.req.Arrival
		}
		if o == OutcomeDecided {
			sum.decidedLat = append(sum.decidedLat, ro.Latency)
		}
		sum.Outcomes = append(sum.Outcomes, ro)
		if now > sum.End {
			sum.End = now
		}
	}

	now := int64(0)
	next := 0 // next arrival index
	for {
		// Choose the next event tick: arrival, completion, or a ready
		// queued request meeting a free worker.
		event := int64(-1)
		if next < len(reqs) {
			event = reqs[next].Arrival
		}
		for _, r := range running {
			if event < 0 || r.done < event {
				event = r.done
			}
		}
		if free > 0 {
			if er := q.earliestReady(); er >= 0 {
				at := er
				if at < now {
					at = now
				}
				if event < 0 || at < event {
					event = at
				}
			}
		}
		if event < 0 {
			break
		}
		if event > now {
			now = event
		}

		// 1. Completions due now: record verdicts, free workers, schedule
		// retries.
		for i := 0; i < len(running); {
			r := running[i]
			if r.done > now {
				i++
				continue
			}
			running = append(running[:i], running[i+1:]...)
			free++
			tripped := false
			if !r.ok {
				tripped = env.onAttempt(r.p.req.Cohort, false, r.done)
			} else {
				env.onAttempt(r.p.req.Cohort, true, r.done)
			}
			switch {
			case r.ok && r.done <= r.p.absDeadline():
				finish(r.p, OutcomeDecided, r.done, false, false)
			case r.ok:
				// Decided, but past the deadline: the client is gone.
				finish(r.p, OutcomeDeadline, r.done, false, false)
			default:
				r.p.failed = true
				r.p.partial = r.partial
				canRetry := r.p.attempt < 1+env.retry.budget
				nextStart := r.done + env.retry.backoff(r.p.attempt)
				fits := nextStart+r.p.req.Service <= r.p.absDeadline()
				switch {
				case canRetry && fits:
					r.p.notBefore = nextStart
					q.push(r.p)
					env.c.Retries++
				case canRetry:
					// Budget remains but the deadline cuts the retry off.
					finish(r.p, OutcomeDeadline, r.done, r.partial, tripped)
				default:
					// Budget exhausted with deadline room: serve the last
					// attempt's partial result.
					finish(r.p, OutcomeDegraded, r.done, r.partial, tripped)
				}
			}
		}

		// 2. Arrivals due now: run the admission chain.
		for next < len(reqs) && reqs[next].Arrival <= now {
			req := reqs[next]
			next++
			ad := env.admit(req.Arrival, req, q)
			if ad.victim != nil {
				finish(ad.victim, OutcomeShed, req.Arrival, false, false)
			}
			if !ad.admitted {
				finish(&pending{req: req}, ad.outcome, req.Arrival, false, false)
				continue
			}
			q.push(&pending{req: req})
		}

		// 3. Dispatch ready requests onto free workers. Requests already
		// past their deadline are finished without burning a worker.
		for free > 0 {
			p := q.popReady(now)
			if p == nil {
				break
			}
			if now >= p.absDeadline() {
				finish(p, OutcomeDeadline, now, p.partial, false)
				continue
			}
			p.attempt++
			p.scenario = composeScenario(cfg, windowKind(w, p.req), p.req.Window >= 0)
			p.seed = attemptSeed(cfg, p.req, p.attempt)
			scen := variants[p.scenario]
			inputs := harness.UniformInputs(cfg.N, cfg.Lo, cfg.Hi, p.seed)
			spec, err := harness.SpecFrom(cfg.params(), inputs, scen, p.seed)
			if err != nil {
				return nil, fmt.Errorf("serve: request %d: %w", p.req.ID, err)
			}
			spec.MaxEvents = cfg.MaxEvents
			spec.Reliable = cfg.Reliable
			rep, err := harness.Run(spec)
			if err != nil {
				return nil, fmt.Errorf("serve: request %d: %w", p.req.ID, err)
			}
			harness.CountRun(rep)
			sum.Instances++
			sum.InstanceMsgs += int64(rep.Result.Stats.MessagesSent)
			ok := rep.OK()
			partial := !ok && rep.Result != nil && len(rep.Result.Decisions) > 0
			free--
			running = append(running, runningInst{p: p, done: now + p.req.Service, ok: ok, partial: partial})
		}
	}

	sum.Counters = env.c
	sort.Slice(sum.decidedLat, func(i, j int) bool { return sum.decidedLat[i] < sum.decidedLat[j] })
	if !sum.Counters.Accounted() {
		return nil, fmt.Errorf("serve: accounting violated: offered %d != outcomes %d+%d+%d+%d+%d",
			sum.Offered, sum.Decided, sum.Shed, sum.DeadlineExceeded, sum.BreakerOpen, sum.Degraded)
	}
	return sum, nil
}

// windowKind maps a request's window tag back to its kind.
func windowKind(w workload.Spec, req workload.Request) workload.WindowKind {
	if req.Window < 0 || req.Window >= len(w.Windows) {
		return 0
	}
	return w.Windows[req.Window].Kind
}

// scenarioVariants enumerates every composed scenario string the workload
// can produce against this config.
func scenarioVariants(cfg Config, w workload.Spec) []string {
	out := []string{composeScenario(cfg, 0, false)}
	seen := map[string]bool{out[0]: true}
	for _, win := range w.Windows {
		s := composeScenario(cfg, win.Kind, true)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
