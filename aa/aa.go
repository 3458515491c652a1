// Package aa is the public API of the asynchronous approximate-agreement
// library: n parties with real-valued inputs, up to t faulty, reach outputs
// within ε of each other inside the convex hull of the non-faulty inputs,
// over a fully asynchronous message-passing network.
//
// Three asynchronous protocols are offered, selected by Model:
//
//   - ModelCrash (n ≥ 2t+1): crash faults; provable per-round halving.
//   - ModelByzantineTrim (n ≥ 7t+1): Byzantine faults with quadratic
//     message complexity; provable per-round halving.
//   - ModelByzantineWitness (n ≥ 3t+1): Byzantine faults at optimal
//     resilience via reliable broadcast and the witness technique; cubic
//     message complexity.
//
// plus ModelSynchronous, a lock-step baseline for comparison.
//
// Use Simulate to run a protocol on the deterministic discrete-event
// simulator under a chosen adversary, or RunLive to run it on a real
// goroutine-per-party runtime with channel transports.
//
// Both runtimes can degrade the network — per-send Bernoulli loss and
// duplication, regional outages, and flapping parties (scenario axes
// "loss:P"/"dup:P"/"outage:k:start:len"/"flap:len" under Simulate,
// LiveOptions fields under RunLive) — and both can wrap every party in an
// ack/retransmit reliable transport (WithReliable / LiveOptions.Reliable)
// that heals the damage by retransmission. The Outcome's Dropped, Duped,
// and Retransmits counters report what the network did; a live timeout
// returns the partial Outcome alongside the error instead of discarding
// the progress.
package aa

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Model selects the protocol / fault model.
type Model int

// Models.
const (
	// ModelCrash tolerates t < n/2 crash faults.
	ModelCrash Model = iota + 1
	// ModelByzantineTrim tolerates t < n/7 Byzantine faults with O(n²)
	// messages per round.
	ModelByzantineTrim
	// ModelByzantineWitness tolerates t < n/3 Byzantine faults with O(n³)
	// messages per round.
	ModelByzantineWitness
	// ModelSynchronous is the lock-step baseline, t < n/3.
	ModelSynchronous
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelCrash:
		return "crash"
	case ModelByzantineTrim:
		return "byzantine-trim"
	case ModelByzantineWitness:
		return "byzantine-witness"
	case ModelSynchronous:
		return "synchronous"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// ErrUnknownModel is returned for an unrecognized Model.
var ErrUnknownModel = errors.New("aa: unknown model")

// Config describes one agreement instance. All parties must use identical
// configurations (the configuration is common knowledge, like the protocol
// itself).
type Config struct {
	// Model selects the protocol / fault model.
	Model Model
	// N is the number of parties, T the fault bound.
	N, T int
	// Epsilon is the agreement precision: honest outputs differ by at most
	// Epsilon.
	Epsilon float64
	// Lo and Hi promise a range containing every honest input; the round
	// count is derived from it. Required unless Adaptive is set.
	Lo, Hi float64
	// Adaptive lets the parties estimate the spread at runtime instead of
	// using [Lo, Hi]; cheaper when the real spread is far below the
	// promised range, but the termination guarantee becomes conditional on
	// scheduler fairness: the round count comes from the first inputs a
	// party hears, and a scheduler that holds back the extreme ones can
	// cut it short (experiment E8 measures this).
	Adaptive bool
	// ExtraRounds adds safety rounds beyond the computed budget.
	ExtraRounds int
	// SyncRoundTicks is the lock-step round length for ModelSynchronous,
	// in simulator ticks. It must be at least the maximum network delay.
	SyncRoundTicks int64
}

// params converts the public configuration to the internal one.
func (c Config) params() (core.Params, error) {
	p := core.Params{
		N:             c.N,
		T:             c.T,
		Eps:           c.Epsilon,
		Lo:            c.Lo,
		Hi:            c.Hi,
		Adaptive:      c.Adaptive,
		ExtraRounds:   c.ExtraRounds,
		RoundDuration: sim.Time(c.SyncRoundTicks),
	}
	switch c.Model {
	case ModelCrash:
		p.Protocol = core.ProtoCrash
	case ModelByzantineTrim:
		p.Protocol = core.ProtoByzTrim
	case ModelByzantineWitness:
		p.Protocol = core.ProtoWitness
	case ModelSynchronous:
		p.Protocol = core.ProtoSync
	default:
		return p, fmt.Errorf("%w: %d", ErrUnknownModel, int(c.Model))
	}
	if p.Protocol == core.ProtoSync && p.RoundDuration == 0 {
		p.RoundDuration = 20
	}
	return p, p.Validate()
}

// Validate checks the configuration without running anything.
func (c Config) Validate() error {
	_, err := c.params()
	return err
}

// Rounds reports the round budget the configuration implies (0 for adaptive
// configurations, whose budget is input-dependent).
func (c Config) Rounds() (int, error) {
	p, err := c.params()
	if err != nil {
		return 0, err
	}
	if c.Adaptive {
		return 0, nil
	}
	return p.FixedRounds()
}

// MinN returns the smallest n supporting fault bound t under a model.
func MinN(m Model, t int) (int, error) {
	switch m {
	case ModelCrash:
		return core.MinN(core.ProtoCrash, t), nil
	case ModelByzantineTrim:
		return core.MinN(core.ProtoByzTrim, t), nil
	case ModelByzantineWitness:
		return core.MinN(core.ProtoWitness, t), nil
	case ModelSynchronous:
		return core.MinN(core.ProtoSync, t), nil
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownModel, int(m))
	}
}

// NewProcess builds the protocol state machine for one party with the given
// input. The returned process can be attached to the simulator or to the
// live runtime; advanced users can drive it over their own transport by
// implementing the internal process contract.
func NewProcess(c Config, input float64) (sim.Process, error) {
	p, err := c.params()
	if err != nil {
		return nil, err
	}
	switch p.Protocol {
	case core.ProtoCrash, core.ProtoByzTrim:
		return core.NewAsyncAA(p, input)
	case core.ProtoWitness:
		return core.NewWitnessAA(p, input)
	default:
		return core.NewSyncAA(p, input)
	}
}
