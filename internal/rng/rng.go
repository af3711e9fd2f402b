// Package rng provides a small, deterministic, splittable random number
// generator used throughout nasgo.
//
// Reproducibility is a first-class requirement of the NAS infrastructure:
// the paper's experiments depend on agent-specific random weight
// initialization (so that two agents evaluating the same architecture can
// obtain different rewards) while the overall run must be replayable from a
// single seed. Rand supports cheap child-stream derivation via Split, so a
// search run can hand independent, reproducible streams to every agent,
// evaluation task, and layer initializer without any shared mutable state.
//
// The core generator is SplitMix64 feeding a xoshiro256** state, the same
// construction used by several scientific computing stacks. It is not
// cryptographically secure, which is fine: it drives simulations, weight
// initialization, and sampling only.
package rng

import "math"

// Rand is a deterministic pseudo-random generator. It is NOT safe for
// concurrent use; derive one generator per goroutine with Split.
type Rand struct {
	s [4]uint64
	// spare holds a cached standard normal deviate (Box-Muller generates
	// two at a time).
	spare    float64
	hasSpare bool
}

// splitmix64 advances the given state and returns the next output. It is
// used to expand a single 64-bit seed into the 256-bit xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed. Two generators
// built from the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro requires a not-all-zero state; splitmix64 cannot produce four
	// zero outputs in a row, so the state is always valid.
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// State is the complete serializable state of a Rand: the xoshiro256**
// words plus the Box-Muller spare. A generator restored from a State emits
// exactly the tail sequence the captured generator would have emitted —
// the property the checkpoint/resume subsystem builds on.
type State struct {
	S [4]uint64
	// Spare and HasSpare capture the cached Box-Muller deviate, so Norm
	// sequences survive a save/restore mid-pair.
	Spare    float64
	HasSpare bool
}

// State captures r's current state without advancing it.
func (r *Rand) State() State {
	return State{S: r.s, Spare: r.spare, HasSpare: r.hasSpare}
}

// SetState overwrites r with a previously captured state.
func (r *Rand) SetState(st State) {
	r.s = st.S
	r.spare = st.Spare
	r.hasSpare = st.HasSpare
}

// FromState builds a generator positioned at a previously captured state.
func FromState(st State) *Rand {
	r := &Rand{}
	r.SetState(st)
	return r
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives a new, statistically independent generator from r. The
// derived stream is a pure function of r's current state, so a fixed
// sequence of Split/draw operations is fully reproducible.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa02bdbf7bb3c0a7a)
}

// Float64 returns a uniform float64 in [0,1). The outer conversion rounds the
// product, so an inlined call such as 2*r.Float64() - 1 cannot fuse it into a
// multiply-add (DESIGN §6).
func (r *Rand) Float64() float64 {
	return float64(float64(r.Uint64()>>11) * (1.0 / (1 << 53)))
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style bounded rejection would be faster, but modulo bias at
	// n << 2^64 is far below anything observable in our use; keep it simple.
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal deviate via the Box-Muller transform.
func (r *Rand) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// Perm returns a random permutation of [0,n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap
// (Fisher-Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed float64 with rate 1.
func (r *Rand) Exp() float64 {
	// Guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Categorical samples an index proportionally to the given non-negative
// weights. It panics if the weights sum to a non-positive value.
func (r *Rand) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: negative or NaN categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
