// Package rng provides a small, deterministic, seedable pseudo-random
// number generator together with the variate generators the simulators in
// this repository need (uniform, exponential, Poisson, normal).
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014): a 64-bit linear
// congruential state with an output permutation. It is hand-rolled here so
// that experiment results are bit-reproducible across Go releases (the
// stdlib math/rand algorithm is not guaranteed stable) and so that streams
// can be split deterministically for independent simulation entities.
package rng

import (
	"math"
	"math/bits"
	"slices"
)

const (
	pcgMultiplier = 6364136223846793005
	pcgIncrement  = 1442695040888963407
)

// Source is a deterministic PCG-XSH-RR 64/32 generator. The zero value is
// usable but every zero-value Source produces the same stream; use New or
// Seed for distinct streams.
type Source struct {
	state uint64
	inc   uint64
}

// New returns a Source seeded with seed on the default stream.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// NewStream returns a Source seeded with seed on a specific stream. Distinct
// stream values yield statistically independent sequences for the same seed.
func NewStream(seed, stream uint64) *Source {
	s := &Source{inc: (stream << 1) | 1}
	s.state = 0
	s.next()
	s.state += seed
	s.next()
	return s
}

// Seed resets the generator to a state derived from seed on the default
// stream.
func (s *Source) Seed(seed uint64) {
	*s = *NewStream(seed, pcgIncrement>>1)
}

// Split derives a new, deterministically-related but statistically
// independent Source from s. The parent stream advances by one draw.
func (s *Source) Split() *Source {
	return NewStream(s.next64(), s.next()|1)
}

// next advances the state and returns 32 permuted bits.
func (s *Source) next() uint64 {
	old := s.state
	s.state = old*pcgMultiplier + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return uint64(xorshifted>>rot | xorshifted<<((-rot)&31))
}

// next64 returns 64 random bits by combining two 32-bit outputs.
func (s *Source) next64() uint64 {
	return s.next()<<32 | s.next()
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 { return s.next64() }

// Uint32 returns a uniformly distributed 32-bit value.
func (s *Source) Uint32() uint32 { return uint32(s.next()) }

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.next64()>>11) / (1 << 53)
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded rejection method.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	bound := uint64(n)
	for {
		v := s.next64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// PermInto fills dst with a pseudo-random permutation of [0, n) and
// returns it, growing dst only when its capacity is below n — and then
// geometrically, so a caller whose n creeps upward (one permutation per
// arrival into a growing swarm) reallocates O(log n) times, not every
// call. The draw sequence is identical to Perm's, so the two are
// interchangeable in deterministic simulations; PermInto exists for hot
// paths that must not allocate per call.
func (s *Source) PermInto(dst []int, n int) []int {
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponential variate with rate lambda (mean 1/lambda).
// It panics if lambda <= 0.
func (s *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's product method; for large means the PTRS transformed
// rejection method would be usual, but since every caller in this repository
// uses small means the simpler normal approximation with continuity
// correction is used beyond 30 (error far below the simulators' noise).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		limit := math.Exp(-mean)
		prod := s.Float64()
		n := 0
		for prod >= limit {
			prod *= s.Float64()
			n++
		}
		return n
	}
	v := mean + math.Sqrt(mean)*s.Norm() + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Norm returns a standard normal variate (Marsaglia polar method).
func (s *Source) Norm() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}
