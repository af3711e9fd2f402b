package ps

import (
	"math"
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
	if len(s.pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(s.pending))
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
