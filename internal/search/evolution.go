package search

import (
	"nasgo/internal/rl"
	"nasgo/internal/rng"
	"nasgo/internal/space"
)

// EVO is regularized ("aging") evolution, the extremely scalable
// evolutionary comparator the paper discusses in §6/§7 (Real et al.'s
// regularized evolution, MENNDL): a fixed-size population evolves by
// tournament selection and single-decision mutation, and the OLDEST member
// dies each step regardless of fitness, which keeps the search exploring.
//
// Agents run the same batch discipline as the RL strategies — M offspring
// per round through the evaluator — so utilization and caching behave
// comparably; there is no gradient exchange.
const EVO = "evo"

// evoState is one agent's population.
type evoState struct {
	population []EvoMemberState
	capacity   int
	rand       *rng.Rand
}

// EvoMemberState is one population member, live and in a checkpoint.
type EvoMemberState struct {
	Choices []int
	Reward  float64
}

func newEvoState(capacity int, r *rng.Rand) *evoState {
	if capacity < 2 {
		capacity = 2
	}
	return &evoState{capacity: capacity, rand: r}
}

// propose returns the next architecture to evaluate: a random one while the
// population is filling, afterwards a mutated tournament winner.
func (s *evoState) propose(sp *space.Space) []int {
	if len(s.population) < s.capacity {
		return sp.RandomChoices(s.rand)
	}
	// Tournament of 3.
	best := -1
	for i := 0; i < 3; i++ {
		k := s.rand.Intn(len(s.population))
		if best < 0 || s.population[k].Reward > s.population[best].Reward {
			best = k
		}
	}
	parent := s.population[best].Choices
	child := append([]int(nil), parent...)
	// Mutate one decision to a different option.
	d := s.rand.Intn(len(child))
	n := sp.NumChoices(d)
	if n > 1 {
		nv := s.rand.Intn(n - 1)
		if nv >= child[d] {
			nv++
		}
		child[d] = nv
	}
	return child
}

// record adds an evaluated member, retiring the oldest when full.
func (s *evoState) record(choices []int, reward float64) {
	s.population = append(s.population, EvoMemberState{Choices: choices, Reward: reward})
	if len(s.population) > s.capacity {
		s.population = s.population[1:] // aging: drop the oldest
	}
}

// evoRoundDone folds the round's evaluated offspring into the population.
func (a *agent) evoRoundDone(eps []*rl.Episode) {
	for _, ep := range eps {
		a.evo.record(ep.Choices, ep.Reward)
	}
	// Same resubmission latency as RDM; also guarantees virtual time
	// advances on fully cached rounds.
	a.waitNextRound()
}

// sampleEvo builds the round's episodes for an EVO agent.
func (a *agent) sampleEvo(m int) []*rl.Episode {
	eps := make([]*rl.Episode, m)
	for i := range eps {
		eps[i] = &rl.Episode{Choices: a.evo.propose(a.r.space)}
	}
	return eps
}
