package ps

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"nasgo/internal/hpc"
)

func TestSyncBarrier(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServer(sim, Config{Mode: Sync, Agents: 3, Latency: 1})
	var got [][]float64
	deliver := func(avg []float64) { got = append(got, avg) }
	sim.At(0, func() { s.Exchange(0, []float64{1, 0}, deliver) })
	sim.At(5, func() { s.Exchange(1, []float64{2, 0}, deliver) })
	// Nothing released before the third agent arrives.
	sim.Run(8)
	if len(got) != 0 {
		t.Fatalf("barrier released early: %d deliveries", len(got))
	}
	if len(s.st.PendingGrads) != 2 {
		t.Fatalf("pending = %d, want 2", len(s.st.PendingGrads))
	}
	sim.At(0, func() { s.Exchange(2, []float64{3, 3}, deliver) })
	sim.RunAll()
	if len(got) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(got))
	}
	for _, avg := range got {
		if math.Abs(avg[0]-2) > 1e-12 || math.Abs(avg[1]-1) > 1e-12 {
			t.Fatalf("average = %v, want [2 1]", avg)
		}
	}
	// Release happened at barrier time + latency = 8 + 1.
	if sim.Now() != 9 {
		t.Fatalf("release time %g, want 9", sim.Now())
	}
	if s.Stats().Rounds != 1 {
		t.Fatalf("rounds = %d", s.Stats().Rounds)
	}
}

func TestSyncMultipleRounds(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServer(sim, Config{Mode: Sync, Agents: 2, Latency: 0})
	rounds := 0
	var exchange func(agent int, round int)
	exchange = func(agent, round int) {
		if round >= 3 {
			return
		}
		s.Exchange(agent, []float64{float64(round)}, func(avg []float64) {
			if avg[0] != float64(round) {
				t.Errorf("round %d avg %v", round, avg)
			}
			if agent == 0 {
				rounds++
			}
			exchange(agent, round+1)
		})
	}
	sim.At(0, func() { exchange(0, 0) })
	sim.At(0, func() { exchange(1, 0) })
	sim.RunAll()
	if rounds != 3 {
		t.Fatalf("completed rounds = %d, want 3", rounds)
	}
}

func TestAsyncImmediate(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServer(sim, Config{Mode: Async, Window: 2, Latency: 1})
	var got [][]float64
	sim.At(0, func() {
		s.Exchange(0, []float64{2}, func(avg []float64) { got = append(got, avg) })
	})
	sim.RunAll()
	if len(got) != 1 || got[0][0] != 2 {
		t.Fatalf("async first exchange = %v", got)
	}
	// Window averaging: second exchange averages with the first.
	sim.At(0, func() {
		s.Exchange(1, []float64{4}, func(avg []float64) { got = append(got, avg) })
	})
	sim.RunAll()
	if math.Abs(got[1][0]-3) > 1e-12 {
		t.Fatalf("window average = %g, want 3", got[1][0])
	}
	// Window caps at 2: a third exchange drops the first gradient.
	sim.At(0, func() {
		s.Exchange(0, []float64{6}, func(avg []float64) { got = append(got, avg) })
	})
	sim.RunAll()
	if math.Abs(got[2][0]-5) > 1e-12 {
		t.Fatalf("capped window average = %g, want (4+6)/2 = 5", got[2][0])
	}
}

func TestAsyncStaleness(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServer(sim, Config{Mode: Async, Window: 8, Latency: 0})
	noop := func([]float64) {}
	sim.At(0, func() {
		s.Exchange(0, []float64{1}, noop)
		s.Exchange(1, []float64{1}, noop)
		s.Exchange(2, []float64{1}, noop)
		s.Exchange(0, []float64{1}, noop) // 2 gradients since agent 0's last
	})
	sim.RunAll()
	st := s.Stats()
	if st.Exchanges != 4 {
		t.Fatalf("exchanges = %d", st.Exchanges)
	}
	if math.Abs(st.MeanStaleness-2) > 1e-12 {
		t.Fatalf("staleness = %g, want 2", st.MeanStaleness)
	}
}

func TestMismatchedGradientPanics(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServer(sim, Config{Mode: Sync, Agents: 2})
	s.Exchange(0, []float64{1, 2}, func([]float64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	s.Exchange(1, []float64{1}, func([]float64) {})
}

func TestSyncRequiresAgents(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewServer(hpc.NewSim(), Config{Mode: Sync})
}

// psRun drives agents that exchange again the moment a delivery arrives, so
// after the starts every pending event is one of the server's deliveries.
type psRun struct {
	sim    *hpc.Sim
	srv    *Server
	rounds []int // exchanges made, per agent
	got    []delivered
}

type delivered struct {
	agent            int
	time, avg0, avg1 uint64
}

const runRounds = 6

func (r *psRun) waiter(agent int) func([]float64) {
	return func(avg []float64) {
		r.got = append(r.got, delivered{agent, math.Float64bits(r.sim.Now()),
			math.Float64bits(avg[0]), math.Float64bits(avg[1])})
		r.exchange(agent)
	}
}

func (r *psRun) exchange(agent int) {
	k := r.rounds[agent]
	if k == runRounds {
		return
	}
	r.rounds[agent]++
	grad := []float64{float64(agent+1) / float64(k+3), math.Sqrt(float64(7*agent + k))}
	r.srv.Exchange(agent, grad, r.waiter(agent))
}

// scribble overwrites every value of s's state and of its queued
// deliveries in place.
func scribble(s *Server) {
	for _, gs := range [][][]float64{s.st.Window, s.st.PendingGrads} {
		for _, g := range gs {
			for i := range g {
				g[i] = -1
			}
		}
	}
	for id := range s.st.LastExchange {
		s.st.LastExchange[id] = -1
	}
	for i := range s.st.PendingAgents {
		s.st.PendingAgents[i] = -1
	}
	for _, ev := range s.sim.Pending() {
		if d, ok := ev.Handler.(*delivery); ok {
			for i := range d.avg {
				d.avg[i] = -1
			}
		}
	}
}

// TestShortStateRoundTrip: a server captured mid-run and restored onto a
// fresh simulator through Resume makes the same deliveries (order, agent,
// time and average, bit for bit) and ends with the same Stats as the run it
// was cut from: in Sync mode mid-barrier with deliveries in flight, and in
// Async mode with the window part full. The captured State is a copy:
// writing over the live server after the capture, or over a server restored
// from it, leaves it unchanged.
func TestShortStateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		steps int
		check func(t *testing.T, st *State)
	}{
		{"sync mid-barrier", Config{Mode: Sync, Agents: 3, Latency: 0.5}, 4, func(t *testing.T, st *State) {
			if len(st.PendingAgents) != 1 || len(st.Inflight) != 2 {
				t.Fatalf("cut: %d parked, %d in flight; want 1 and 2", len(st.PendingAgents), len(st.Inflight))
			}
		}},
		{"async mid-window", Config{Mode: Async, Window: 6, Latency: 1}, 5, func(t *testing.T, st *State) {
			if len(st.Window) != 5 || len(st.Inflight) != 3 || st.StaleN == 0 {
				t.Fatalf("cut: window %d, %d in flight, staleN %d; want 5, 3, > 0", len(st.Window), len(st.Inflight), st.StaleN)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runTo := func() *psRun {
				r := &psRun{sim: hpc.NewSim(), rounds: make([]int, 3)}
				r.srv = NewServer(r.sim, tc.cfg)
				for agent, start := range []float64{0, 0.4, 0.9} {
					agent := agent
					r.sim.At(start, func() { r.exchange(agent) })
				}
				for i := 0; i < tc.steps; i++ {
					r.sim.Step()
				}
				return r
			}
			live := runTo()
			st := live.srv.CaptureState()
			tc.check(t, st)
			want := fmt.Sprint(*st)
			cut := len(live.got)

			resumed := &psRun{sim: hpc.NewSimAt(live.sim.Now()), rounds: append([]int(nil), live.rounds...)}
			srv, events := RestoreServer(resumed.sim, tc.cfg, st, resumed.waiter)
			resumed.srv = srv
			resumed.sim.Resume(events)
			resumed.sim.RunAll()
			live.sim.RunAll()

			if !reflect.DeepEqual(live.got[cut:], resumed.got) {
				t.Errorf("deliveries after the cut differ:\nlive    %v\nresumed %v", live.got[cut:], resumed.got)
			}
			if len(resumed.got) == 0 {
				t.Error("nothing delivered after the cut")
			}
			if a, b := live.srv.Stats(), resumed.srv.Stats(); a != b {
				t.Errorf("stats: live %+v, resumed %+v", a, b)
			}
			if fmt.Sprint(*st) != want {
				t.Error("running on after the capture changed the captured state")
			}

			again := runTo()
			st = again.srv.CaptureState()
			scribble(again.srv)
			if fmt.Sprint(*st) != want {
				t.Errorf("writing over the live server changed the captured state:\nwant %s\ngot  %s", want, fmt.Sprint(*st))
			}
			restored, _ := RestoreServer(hpc.NewSimAt(again.sim.Now()), tc.cfg, st, resumed.waiter)
			scribble(restored)
			if fmt.Sprint(*st) != want {
				t.Errorf("writing over a restored server changed the state:\nwant %s\ngot  %s", want, fmt.Sprint(*st))
			}
		})
	}
}
