package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Stats aggregates message-level accounting for one execution.
type Stats struct {
	// MessagesSent counts point-to-point sends issued (a multicast counts
	// as N sends). Sends truncated by a crash are not counted.
	MessagesSent int
	// MessagesDelivered counts deliveries actually performed.
	MessagesDelivered int
	// BytesSent sums the wire sizes of all sent messages.
	BytesSent int
	// HonestMessagesSent counts sends whose sender has no fault assignment.
	HonestMessagesSent int
	// HonestBytesSent sums wire sizes of honest sends.
	HonestBytesSent int
	// MessagesDropped counts sends suppressed by a lossy-network fate
	// (loss/outage/flap axes). Dropped sends are still counted in
	// MessagesSent — the sender paid for them — but never delivered.
	MessagesDropped int
	// MessagesDuped counts sends for which the scheduler queued a second
	// delivery of the same envelope (dup axis). Each duplicate that
	// arrives also increments MessagesDelivered.
	MessagesDuped int
}

// Result summarizes a finished execution.
type Result struct {
	// Decisions holds one entry per party that called Decide.
	Decisions map[PartyID]float64
	// DecidedAt records the virtual time of each decision.
	DecidedAt map[PartyID]Time
	// FinishTime is the virtual time of the last honest decision.
	FinishTime Time
	// MaxHonestDelay is the largest delay the scheduler imposed on a
	// message between two non-faulty parties. Round complexity of the
	// execution is FinishTime / MaxHonestDelay.
	MaxHonestDelay Time
	// Stats carries message accounting.
	Stats Stats
	// Honest lists the parties with no fault assignment, ascending.
	Honest []PartyID
}

// Rounds reports the asynchronous round complexity of the execution: the
// time of the last honest output divided by the maximum honest message
// delay, per the standard definition of asynchronous rounds.
func (r *Result) Rounds() float64 {
	if r.MaxHonestDelay <= 0 {
		return 0
	}
	return float64(r.FinishTime) / float64(r.MaxHonestDelay)
}

// HonestDecisions returns the decisions of non-faulty parties, sorted
// ascending by value.
func (r *Result) HonestDecisions() []float64 {
	out := make([]float64, 0, len(r.Honest))
	for _, p := range r.Honest {
		if v, ok := r.Decisions[p]; ok {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// HonestSpread returns the diameter of the honest decisions (0 when fewer
// than two parties decided). It is allocation-free: the harness calls it
// once per run on the recycled hot path.
func (r *Result) HonestSpread() float64 {
	var lo, hi float64
	count := 0
	for _, p := range r.Honest {
		v, ok := r.Decisions[p]
		if !ok {
			continue
		}
		if count == 0 {
			lo, hi = v, v
		} else {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		count++
	}
	if count < 2 {
		return 0
	}
	return hi - lo
}

// Network is the discrete-event simulator. Create one with New, attach
// processes with SetProcess for every honest party, then call Run.
//
// A Network is resettable: Reset reconfigures it for a new execution while
// recycling every piece of run state — the event queue's arena, the payload
// blocks, the per-party records and their random sources. A party's source
// is seeded on its first Rand call of a run, not in Reset, so runs whose
// parties never draw (honest parties without the reliable transport) pay
// no seeding; the network's scheduler source is seeded in Reset. After a
// warm-up run of the same shape, a Reset + Run cycle performs zero
// steady-state heap allocations. Reset is provably equivalent to fresh
// construction (every field a run can observe is re-derived from the new
// Config), which the harness pins by comparing warm and freshly built run
// contexts report for report.
type Network struct {
	cfg        Config
	parties    []*partyState // the run's parties: allParties[:cfg.N]
	allParties []*partyState // every party record ever built, for recycling
	queue      *calendarQueue
	tick       []event       // reusable buffer for the tick being delivered
	arena      payloadArena  // payload snapshots of the run's sends
	fate       FateScheduler // cfg.Scheduler when it decides drops/dups; nil otherwise
	rng        *rand.Rand
	now        Time
	seq        uint64
	stats      Stats
	finishTime Time

	// Hot per-party state lives in parallel flat arrays indexed by PartyID
	// (struct-of-arrays): the per-event loops touch only the field they
	// need, walking contiguous memory instead of chasing partyState
	// pointers — the cache-density move for n >= 256 sweeps. The partyState
	// records keep the cold identity (process, rand source).
	crashed    []bool
	faulty     []bool // any fault assignment (crash or byzantine)
	byz        []bool
	decided    []bool
	sendBudget []int // sends remaining before a crash fires; -1 = unlimited
	decision   []float64
	decidedAt  []Time

	maxHonestDelay Time
	pendingHonest  int // honest parties that have not decided yet

	// Crash-recovery state (see restart.go): the time-sorted action list
	// resolved from cfg.Restarts, the firing cursor, the per-plan snapshot
	// buffers (recycled across runs), and the digest log the incident
	// layer records.
	ractions    []restartAction
	rnext       int
	planSnaps   [][]byte
	ckptDigests []uint64

	// observer, when non-nil, is invoked after every delivery.
	observer func(now Time, env Envelope)

	defaultMaxEvents int
}

// arenaBlock is the payload arena's allocation granularity.
const arenaBlock = 1 << 16

// payloadArena is a recycled block arena for message payloads: Send and
// Multicast snapshot the caller's bytes into the current block, so protocols
// encode into reusable scratch buffers and a multicast's n envelopes share
// one copy. Queued events name a payload by reference (block index and
// offset, plus a length), not by slice, which keeps them pointer-free. A
// payload is valid only while its envelope is in flight (until the delivery
// callback returns): exhausted blocks are kept and recycled by reset, so
// memory is bounded by the peak per-run payload volume rather than churned
// per run.
type payloadArena struct {
	blocks [][]byte
	cur    []byte // blocks[blk], the block currently being carved
	blk    int    // index of cur; -1 before the first block exists
	off    int    // write offset into cur
}

// snapshot copies data into the arena and returns the copy's reference
// (block index in the high 32 bits, offset in the low 32) and its length.
// The in-block fast path is kept small enough to inline into
// Send/Multicast; block turnover is outlined in nextBlock.
func (a *payloadArena) snapshot(data []byte) (ref uint64, size int32) {
	if len(data) == 0 {
		return 0, 0
	}
	if a.off+len(data) > len(a.cur) {
		a.nextBlock(len(data))
	}
	ref = uint64(a.blk)<<32 | uint64(a.off)
	a.off += copy(a.cur[a.off:], data)
	return ref, int32(len(data))
}

// bytes returns the payload a snapshot reference names. The slice is
// capacity-clipped so appends can never bleed into a neighboring payload.
func (a *payloadArena) bytes(ref uint64, size int32) []byte {
	if size <= 0 {
		return nil
	}
	off := int(uint32(ref))
	return a.blocks[ref>>32][off : off+int(size) : off+int(size)]
}

// nextBlock advances cur to the next pooled block that fits need bytes,
// allocating (and pooling) a new block only when none does. Skipped blocks
// stay pooled for later runs.
func (a *payloadArena) nextBlock(need int) {
	for {
		a.blk++
		if a.blk >= len(a.blocks) {
			size := arenaBlock
			if need > size {
				size = need
			}
			a.blocks = append(a.blocks, make([]byte, size))
		}
		a.cur = a.blocks[a.blk]
		a.off = 0
		if need <= len(a.cur) {
			return
		}
	}
}

// reset rewinds the arena to reuse its pooled blocks for a new run.
func (a *payloadArena) reset() {
	a.off = 0
	if len(a.blocks) > 0 {
		a.blk, a.cur = 0, a.blocks[0]
	} else {
		a.blk, a.cur = -1, nil
	}
}

// partyState is a party's cold identity record and its API implementation.
// The hot flags and values (crashed/decided, send budget, decision) live in
// the Network's parallel arrays, indexed by id.
type partyState struct {
	id   PartyID
	proc Process
	net  *Network
	// rng is the party's random source, seeded from seed on the first Rand
	// call of a run (seeded records that it was). Seeding a math/rand
	// source costs about as much as a small run, and only Byzantine
	// behaviours and the reliable transport ever draw from it.
	rng    *rand.Rand
	seed   int64
	seeded bool
}

var _ API = (*partyState)(nil)

func (p *partyState) ID() PartyID { return p.id }
func (p *partyState) N() int      { return p.net.cfg.N }

// Rand returns the party's source, seeded for this run. The stream is the
// one an eagerly seeded source would give: nothing else draws from it.
func (p *partyState) Rand() *rand.Rand {
	if !p.seeded {
		if p.rng == nil {
			p.rng = rand.New(rand.NewSource(p.seed))
		} else {
			p.rng.Seed(p.seed)
		}
		p.seeded = true
	}
	return p.rng
}

func (p *partyState) Send(to PartyID, data []byte) {
	ref, size := p.net.arena.snapshot(data)
	p.net.send(p.id, to, ref, size)
}

func (p *partyState) Multicast(data []byte) {
	// One snapshot shared by all n envelopes: the sender may reuse its
	// buffer immediately, and the n recipients alias a single copy.
	n := p.net
	ref, size := n.arena.snapshot(data)
	id := p.id
	if n.crashed[id] {
		return
	}
	// The crash budget is settled for the whole fan-out at once, with
	// per-send semantics: a budget smaller than the fan-out truncates the
	// multicast to the first sendBudget recipients and fires the crash.
	k := n.cfg.N
	if bud := n.sendBudget[id]; bud >= 0 {
		if bud < k {
			k = bud
			n.crashed[id] = true
		}
		n.sendBudget[id] -= k
	}
	if k == 0 {
		return
	}
	n.countSends(id, k, int(size))
	for to := PartyID(0); to < PartyID(k); to++ {
		n.scheduleSend(id, to, ref, size)
	}
}

func (p *partyState) SetTimer(delay Time, tag uint64) {
	net := p.net
	if net.crashed[p.id] {
		return
	}
	if delay < 1 {
		delay = 1
	}
	net.seq++
	net.queue.Push(&event{
		at:   net.now + delay,
		seq:  net.seq,
		from: int32(p.id),
		to:   int32(p.id),
		ref:  tag,
		size: timerSize,
	})
}

func (p *partyState) Decide(value float64) {
	net := p.net
	if net.decided[p.id] {
		return
	}
	net.decided[p.id] = true
	net.decision[p.id] = value
	net.decidedAt[p.id] = net.now
	if net.faulty[p.id] {
		return
	}
	net.pendingHonest--
	if net.now > net.finishTime {
		net.finishTime = net.now
	}
}

// partySeed derives party i's deterministic random seed from the run seed.
func partySeed(seed int64, i int) int64 {
	return seed ^ (int64(i+1) * 0x7E3779B97F4A7C15)
}

// New builds a network from the configuration. Processes for honest parties
// must be attached with SetProcess before Run.
func New(cfg Config) (*Network, error) {
	n := &Network{defaultMaxEvents: 5_000_000}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset reconfigures the network for a new execution, recycling the event
// queue, the payload arena, and the party records of earlier runs. It is
// observably equivalent to New(cfg): every run-visible field — virtual
// time, sequence counter, stats, party fault assignments, random sources —
// is re-derived from cfg. The scheduler source is reseeded here; each
// party's source gets its seed here and is seeded on the party's first
// Rand call, so every stream is the one a fresh construction would give.
// Attached processes and the observer are cleared; reattach with
// SetProcess (and SetObserver) before Run.
func (n *Network) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n.cfg = cfg
	// Resolve the lossy-network extension once: per-send type assertions
	// would put an interface check on the hot path for the common
	// (fate-free) case.
	n.fate, _ = cfg.Scheduler.(FateScheduler)
	if n.queue == nil {
		n.queue = newCalendarQueue()
	} else {
		n.queue.Reset()
	}
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		n.rng.Seed(cfg.Seed)
	}
	if cap(n.allParties) < cfg.N {
		grown := make([]*partyState, len(n.allParties), cfg.N)
		copy(grown, n.allParties)
		n.allParties = grown
	}
	for len(n.allParties) < cfg.N {
		i := len(n.allParties)
		n.allParties = append(n.allParties, &partyState{id: PartyID(i), net: n})
	}
	n.parties = n.allParties[:cfg.N]
	// Parties beyond the new N keep their records (and warm rand sources)
	// for later larger runs, but must not pin the previous run's process
	// objects (a Byzantine process graph can be sizable).
	for _, ps := range n.allParties[cfg.N:] {
		ps.proc = nil
	}
	n.resizeSoA(cfg.N)
	for i, ps := range n.parties {
		ps.seed = partySeed(cfg.Seed, i)
		ps.seeded = false
		ps.proc = nil
		n.faulty[i] = false
		n.byz[i] = false
		n.crashed[i] = false
		n.sendBudget[i] = -1
		n.decided[i] = false
		n.decision[i] = 0
		n.decidedAt[i] = 0
	}
	for _, cr := range cfg.Crashes {
		n.faulty[cr.Party] = true
		n.sendBudget[cr.Party] = cr.AfterSends
	}
	for id, proc := range cfg.Byzantine {
		n.faulty[id] = true
		n.byz[id] = true
		n.parties[id].proc = proc
	}
	n.resetRestarts()
	n.now = 0
	n.seq = 0
	n.stats = Stats{}
	n.finishTime = 0
	n.maxHonestDelay = 0
	n.pendingHonest = 0
	n.observer = nil
	n.arena.reset()
	return nil
}

// resizeSoA (re)sizes the flat per-party state arrays to n parties,
// recycling their capacity across runs like the party records themselves.
func (n *Network) resizeSoA(size int) {
	if cap(n.crashed) < size {
		n.crashed = make([]bool, size)
		n.faulty = make([]bool, size)
		n.byz = make([]bool, size)
		n.decided = make([]bool, size)
		n.sendBudget = make([]int, size)
		n.decision = make([]float64, size)
		n.decidedAt = make([]Time, size)
	}
	n.crashed = n.crashed[:size]
	n.faulty = n.faulty[:size]
	n.byz = n.byz[:size]
	n.decided = n.decided[:size]
	n.sendBudget = n.sendBudget[:size]
	n.decision = n.decision[:size]
	n.decidedAt = n.decidedAt[:size]
}

// SetProcess attaches the protocol state machine for a party. It must be
// called for every non-Byzantine party before Run. Attaching to a Byzantine
// party is an error: the adversarial process from the Config runs there.
func (n *Network) SetProcess(id PartyID, proc Process) error {
	if id < 0 || int(id) >= n.cfg.N {
		return fmt.Errorf("sim: SetProcess: party %d out of range [0,%d)", id, n.cfg.N)
	}
	if n.byz[id] {
		return fmt.Errorf("sim: SetProcess: party %d is Byzantine; its process comes from the config", id)
	}
	if proc == nil {
		return fmt.Errorf("sim: SetProcess: nil process for party %d", id)
	}
	n.parties[id].proc = proc
	return nil
}

// SetObserver installs a callback invoked after every delivery, used by the
// harness to record convergence trajectories. Pass nil to remove.
func (n *Network) SetObserver(fn func(now Time, env Envelope)) { n.observer = fn }

// Party returns the process attached to a party (nil if none). The harness
// uses this to query Estimator implementations.
func (n *Network) Party(id PartyID) Process {
	if id < 0 || int(id) >= n.cfg.N {
		return nil
	}
	return n.parties[id].proc
}

// Now exposes the current virtual time (used by observers and tests).
func (n *Network) Now() Time { return n.now }

func (n *Network) send(from, to PartyID, ref uint64, size int32) {
	if n.crashed[from] {
		return
	}
	if n.sendBudget[from] == 0 {
		// The crash plan fires: this send and everything after it is lost.
		n.crashed[from] = true
		return
	}
	if n.sendBudget[from] > 0 {
		n.sendBudget[from]--
	}
	n.countSends(from, 1, int(size))
	n.scheduleSend(from, to, ref, size)
}

// countSends adds k sends of size bytes from a party to the stats.
func (n *Network) countSends(from PartyID, k, size int) {
	n.stats.MessagesSent += k
	n.stats.BytesSent += k * size
	if !n.faulty[from] {
		n.stats.HonestMessagesSent += k
		n.stats.HonestBytesSent += k * size
	}
}

// Run executes the simulation until every honest party has decided, the
// event queue drains (ErrStalled), or the event budget is exhausted
// (ErrEventBudget). It returns a Result in all cases; on error the Result
// reflects the partial execution, which tests use for diagnosis.
func (n *Network) Run() (*Result, error) {
	if err := n.checkProcs(); err != nil {
		return nil, err
	}
	res := &Result{}
	return res, n.runInto(res)
}

func (n *Network) checkProcs() error {
	for _, ps := range n.parties {
		if ps.proc == nil {
			return fmt.Errorf("sim: party %d has no process attached", ps.id)
		}
	}
	return nil
}

// RunInto is Run writing its outcome into a caller-owned Result, whose maps
// and slices are reused when already allocated — the allocation-free form
// the recycled harness contexts use. The Result reflects the execution
// (partial on ErrStalled/ErrEventBudget); it is left untouched when a party
// has no process attached.
func (n *Network) RunInto(res *Result) error {
	if err := n.checkProcs(); err != nil {
		return err
	}
	return n.runInto(res)
}

// runInto is the shared execution body; callers have already checkProcs'd.
func (n *Network) runInto(res *Result) error {
	n.pendingHonest = 0
	for i := range n.faulty {
		if !n.faulty[i] {
			n.pendingHonest++
		}
	}
	// Init in ID order at time zero; Init-time sends are scheduled normally.
	for _, ps := range n.parties {
		ps.proc.Init(ps)
	}
	budget := n.cfg.MaxEvents
	if budget <= 0 {
		budget = n.defaultMaxEvents
	}
	err := n.run(budget)
	n.resultInto(res)
	return err
}

// resultInto fills res from the finished (or aborted) execution, reusing
// its maps and slices when present.
func (n *Network) resultInto(res *Result) {
	if res.Decisions == nil {
		res.Decisions = make(map[PartyID]float64)
	} else {
		clear(res.Decisions)
	}
	if res.DecidedAt == nil {
		res.DecidedAt = make(map[PartyID]Time)
	} else {
		clear(res.DecidedAt)
	}
	res.Honest = res.Honest[:0]
	res.FinishTime = n.finishTime
	res.MaxHonestDelay = n.maxHonestDelay
	res.Stats = n.stats
	for i := 0; i < n.cfg.N; i++ {
		id := PartyID(i)
		if n.decided[i] {
			res.Decisions[id] = n.decision[i]
			res.DecidedAt[id] = n.decidedAt[i]
		}
		if !n.faulty[i] {
			res.Honest = append(res.Honest, id)
		}
	}
}
