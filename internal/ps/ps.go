// Package ps implements the parameter server of the paper's manager-worker
// RL scaling scheme (§3.2, Fig. 2).
//
// Agents compute PPO gradients locally and exchange them through the
// server. In synchronous mode (A2C) the server waits for a gradient from
// every agent before averaging, so a round completes only when the slowest
// agent arrives — the source of A2C's sawtooth utilization. In asynchronous
// mode (A3C) the server responds immediately with the average of a window
// of recently received gradients, trading gradient staleness for
// utilization.
//
// The server runs on the discrete-event simulator: callbacks fire after a
// configurable exchange latency of virtual time.
package ps

import (
	"fmt"

	"nasgo/internal/hpc"
	"nasgo/internal/trace"
)

// Mode selects the aggregation discipline.
type Mode int

const (
	// Sync is A2C: average gradients from all N agents per round.
	Sync Mode = iota
	// Async is A3C: average the most recent window of gradients.
	Async
)

func (m Mode) String() string {
	if m == Sync {
		return "sync"
	}
	return "async"
}

// Config parameterizes the server.
type Config struct {
	Mode Mode
	// Agents is the number of participating agents (required for Sync).
	Agents int
	// Window is the Async averaging window; 0 defaults to 4, matching a
	// "set of recently received gradients".
	Window int
	// Latency is the virtual round-trip seconds of one exchange.
	Latency float64
}

// Stats reports aggregate server behaviour for the analytics module.
type Stats struct {
	Exchanges int
	Rounds    int // completed Sync rounds
	// MeanStaleness is the mean, over Async responses, of how many
	// gradients (from any agent) arrived between the responder's previous
	// exchange and this one — the paper's gradient-staleness concern.
	MeanStaleness float64
}

// Server aggregates gradients over virtual time.
type Server struct {
	sim *hpc.Sim
	cfg Config

	// Sync state. pendingAgents parallels pending so a checkpoint can
	// reconstruct which agent is parked at the barrier.
	pending       [][]float64
	pendingAgents []int
	waiters       []func([]float64)
	// Async state.
	window [][]float64
	// Staleness accounting.
	arrival      int64
	lastExchange map[int]int64
	staleSum     float64
	staleN       int

	exchanges int
	rounds    int
}

// delivery is one averaged gradient on its way back to an agent, and the
// handler of the simulator event that delivers it: a checkpoint cut between
// the exchange and its delivery finds it in the simulator's queue.
type delivery struct {
	s       *Server
	agentID int
	avg     []float64
	fn      func([]float64)
}

// Fire delivers the gradient. The trace event is emitted here, so a resumed
// run records the delivery exactly once, on whichever side of the cut it
// lands.
func (d *delivery) Fire() {
	d.s.sim.Recorder().Emit(trace.Event{Cat: trace.CatPS, Name: trace.EvDeliver,
		Node: trace.None, Agent: d.agentID})
	d.fn(d.avg)
}

// NewServer creates a parameter server on the given simulator.
func NewServer(sim *hpc.Sim, cfg Config) *Server {
	if cfg.Mode == Sync && cfg.Agents <= 0 {
		panic("ps: Sync mode requires Agents > 0")
	}
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	return &Server{sim: sim, cfg: cfg, lastExchange: map[int]int64{}}
}

// Exchange submits agentID's gradient; done fires (after the exchange
// latency of virtual time) with the averaged gradient the agent should
// apply. In Sync mode done fires only once the round's last agent arrives.
func (s *Server) Exchange(agentID int, grad []float64, done func(avg []float64)) {
	s.exchanges++
	s.arrival++
	if last, ok := s.lastExchange[agentID]; ok {
		s.staleSum += float64(s.arrival - last - 1)
		s.staleN++
	}
	s.lastExchange[agentID] = s.arrival

	switch s.cfg.Mode {
	case Sync:
		s.pending = append(s.pending, grad)
		s.pendingAgents = append(s.pendingAgents, agentID)
		s.waiters = append(s.waiters, done)
		s.sim.Recorder().Emit(trace.Event{Cat: trace.CatPS, Name: trace.EvBarrierWait,
			Node: trace.None, Agent: agentID, Value: float64(len(s.pending))})
		if len(s.pending) < s.cfg.Agents {
			return
		}
		avg := average(s.pending)
		waiters := s.waiters
		agents := s.pendingAgents
		s.pending = nil
		s.pendingAgents = nil
		s.waiters = nil
		s.rounds++
		s.sim.Recorder().Emit(trace.Event{Cat: trace.CatPS, Name: trace.EvBarrierRelease,
			Node: trace.None, Agent: trace.None, Value: float64(s.rounds)})
		for i, w := range waiters {
			s.deliver(agents[i], avg, w)
		}
	case Async:
		s.window = append(s.window, grad)
		if len(s.window) > s.cfg.Window {
			s.window = s.window[len(s.window)-s.cfg.Window:]
		}
		s.sim.Recorder().Emit(trace.Event{Cat: trace.CatPS, Name: trace.EvWindowFlush,
			Node: trace.None, Agent: agentID, Value: float64(len(s.window))})
		avg := average(s.window)
		s.deliver(agentID, avg, done)
	default:
		panic(fmt.Sprintf("ps: unknown mode %d", s.cfg.Mode))
	}
}

// deliver schedules one averaged gradient for delivery after the exchange
// latency.
func (s *Server) deliver(agentID int, avg []float64, fn func([]float64)) {
	s.sim.AtHandlerE(s.cfg.Latency, &delivery{s: s, agentID: agentID, avg: avg, fn: fn})
}

// DeliveryState is one in-flight averaged gradient in a checkpoint.
type DeliveryState struct {
	AgentID int
	Avg     []float64
	Time    float64
	Seq     int64
}

// State is the complete serializable state of a Server: counters, the Async
// window, the Sync barrier (gradients plus the agents parked at it, in
// arrival order), and in-flight deliveries. Waiter callbacks are not part of
// the state — RestoreServer rebuilds them from the agent IDs.
type State struct {
	Exchanges, Rounds int
	Arrival           int64
	LastExchange      map[int]int64
	StaleSum          float64
	StaleN            int
	Window            [][]float64
	PendingGrads      [][]float64
	PendingAgents     []int
	Inflight          []DeliveryState
}

// CaptureState snapshots the server. All slices are deep-copied, so the
// state stays valid after the live server moves on. In-flight deliveries are
// read from the simulator's queue, in (time, seq) order.
func (s *Server) CaptureState() *State {
	st := &State{
		Exchanges:     s.exchanges,
		Rounds:        s.rounds,
		Arrival:       s.arrival,
		LastExchange:  map[int]int64{},
		StaleSum:      s.staleSum,
		StaleN:        s.staleN,
		Window:        copyGrads(s.window),
		PendingGrads:  copyGrads(s.pending),
		PendingAgents: append([]int(nil), s.pendingAgents...),
	}
	for id, a := range s.lastExchange {
		st.LastExchange[id] = a
	}
	for _, ev := range s.sim.Pending() {
		if d, ok := ev.Handler.(*delivery); ok {
			st.Inflight = append(st.Inflight, DeliveryState{
				AgentID: d.agentID,
				Avg:     append([]float64(nil), d.avg...),
				Time:    ev.Time,
				Seq:     ev.Seq,
			})
		}
	}
	return st
}

// RestoreServer rebuilds a server from a captured state. The waiter factory
// supplies, per agent, the continuation an averaged gradient should invoke
// (the same continuation Exchange would have been given); it is used both
// for agents parked at the Sync barrier and for in-flight deliveries. The
// returned events are the deliveries, not yet enqueued; the caller passes
// them to hpc.Sim.Resume together with every other component's frontier.
func RestoreServer(sim *hpc.Sim, cfg Config, st *State, waiter func(agentID int) func([]float64)) (*Server, []hpc.Event) {
	s := NewServer(sim, cfg)
	s.exchanges = st.Exchanges
	s.rounds = st.Rounds
	s.arrival = st.Arrival
	for id, a := range st.LastExchange {
		s.lastExchange[id] = a
	}
	s.staleSum = st.StaleSum
	s.staleN = st.StaleN
	s.window = copyGrads(st.Window)
	s.pending = copyGrads(st.PendingGrads)
	s.pendingAgents = append([]int(nil), st.PendingAgents...)
	for _, id := range s.pendingAgents {
		s.waiters = append(s.waiters, waiter(id))
	}
	var events []hpc.Event
	for _, d := range st.Inflight {
		events = append(events, hpc.Event{Time: d.Time, Seq: d.Seq, Handler: &delivery{
			s: s, agentID: d.AgentID, avg: append([]float64(nil), d.Avg...), fn: waiter(d.AgentID)}})
	}
	return s, events
}

func copyGrads(gs [][]float64) [][]float64 {
	if gs == nil {
		return nil
	}
	out := make([][]float64, len(gs))
	for i, g := range gs {
		out[i] = append([]float64(nil), g...)
	}
	return out
}

// Stats returns aggregate behaviour counters.
func (s *Server) Stats() Stats {
	st := Stats{Exchanges: s.exchanges, Rounds: s.rounds}
	if s.staleN > 0 {
		st.MeanStaleness = s.staleSum / float64(s.staleN)
	}
	return st
}

func average(grads [][]float64) []float64 {
	if len(grads) == 0 {
		panic("ps: averaging no gradients")
	}
	dim := len(grads[0])
	avg := make([]float64, dim)
	for _, g := range grads {
		if len(g) != dim {
			panic(fmt.Sprintf("ps: gradient length %d, want %d", len(g), dim))
		}
		for i, v := range g {
			avg[i] += v
		}
	}
	inv := 1 / float64(len(grads))
	for i := range avg {
		avg[i] *= inv
	}
	return avg
}
