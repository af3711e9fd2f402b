// Fault model: deterministic node-failure and straggler injection for the
// simulated machine.
//
// The paper's runs execute on a real supercomputer whose nodes fail and
// straggle; Balsam's job state machine (RUN_ERROR, RESTART_READY, FAILED)
// exists precisely because the substrate is imperfect. The seed repository
// assumed a perfect machine. FaultModel closes that gap: it generates a
// reproducible timeline of node-down/node-up events from per-node MTBF/MTTR
// exponentials, plus per-job straggler multipliers, all seeded through
// internal/rng so a fault-injected run replays bit-for-bit from its seed.
//
// The zero value disables every fault mechanism and must leave simulations
// byte-identical to a fault-free substrate.
package hpc

import (
	"sort"

	"nasgo/internal/rng"
)

// FaultModel configures fault injection for a simulated node pool. The zero
// value injects nothing.
type FaultModel struct {
	// MTBF is the per-node mean time between failures in virtual seconds;
	// 0 disables node failures.
	MTBF float64
	// MTTR is the per-node mean time to repair in virtual seconds
	// (default 600 when MTBF is set).
	MTTR float64
	// StragglerProb is the probability that a dispatched job lands on a
	// transiently slow node; 0 disables stragglers.
	StragglerProb float64
	// StragglerSlowdown is the maximum execution-time multiplier of a
	// straggling job; multipliers are uniform in [1, StragglerSlowdown]
	// (default 4 when StragglerProb is set).
	StragglerSlowdown float64
	// Seed drives the failure timeline and straggler draws.
	Seed uint64
}

// Enabled reports whether the model injects any faults at all.
func (f FaultModel) Enabled() bool { return f.MTBF > 0 || f.StragglerProb > 0 }

// WithDefaults fills the dependent defaults (MTTR, StragglerSlowdown) for
// whichever mechanisms are enabled.
func (f FaultModel) WithDefaults() FaultModel {
	if f.MTBF > 0 && f.MTTR <= 0 {
		f.MTTR = 600
	}
	if f.StragglerProb > 0 && f.StragglerSlowdown <= 1 {
		f.StragglerSlowdown = 4
	}
	return f
}

// NodeEvent is one point of a failure timeline: at Time, Node goes down
// (Down=true) or comes back up (Down=false).
type NodeEvent struct {
	Time float64
	Node int
	Down bool
}

// Timeline pre-generates the node-down/node-up events for a pool of the
// given size, ordered by time (ties broken by node index, down before up).
// Down events are generated up to the horizon; every down event's matching
// repair is always included, even past the horizon, so a machine never ends
// a run with nodes permanently dark and jobs stranded in the queue.
//
// Each node draws from its own child stream, so the timeline is a pure
// function of (Seed, nodes, horizon).
func (f FaultModel) Timeline(nodes int, horizon float64) []NodeEvent {
	f = f.WithDefaults()
	if f.MTBF <= 0 || horizon <= 0 {
		return nil
	}
	root := rng.New(f.Seed ^ 0xfa017)
	var events []NodeEvent
	for n := 0; n < nodes; n++ {
		r := root.Split()
		t := 0.0
		for {
			t += float64(r.Exp() * f.MTBF)
			if t >= horizon {
				break
			}
			events = append(events, NodeEvent{Time: t, Node: n, Down: true})
			t += float64(r.Exp() * f.MTTR)
			events = append(events, NodeEvent{Time: t, Node: n, Down: false})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Down && !b.Down
	})
	return events
}

// StragglerStream returns the generator that Straggler draws from. Keeping
// it separate from the failure timeline means enabling stragglers does not
// perturb the failure schedule and vice versa.
func (f FaultModel) StragglerStream() *rng.Rand {
	return rng.New(f.Seed ^ 0x57a661e2)
}

// Straggler returns the execution-time multiplier for one dispatched job:
// 1 for a healthy node, uniform in (1, StragglerSlowdown] for a straggler.
// With StragglerProb == 0 it returns 1 without consuming randomness.
func (f FaultModel) Straggler(r *rng.Rand) float64 {
	f = f.WithDefaults()
	if f.StragglerProb <= 0 {
		return 1
	}
	if r.Float64() >= f.StragglerProb {
		return 1
	}
	return 1 + float64(r.Float64()*(f.StragglerSlowdown-1))
}
