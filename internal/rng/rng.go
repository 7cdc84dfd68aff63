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

// pcgStep is the generator itself: it advances state on stream inc and
// returns the new state with the 32 permuted output bits of the old one.
// Source.next and the fused loop of ShuffleSlice both step through it,
// so there is one PCG.
func pcgStep(state, inc uint64) (next, out uint64) {
	xorshifted := uint32(((state >> 18) ^ state) >> 27)
	rot := int(state >> 59)
	// A right rotation by rot: x>>rot | x<<(-rot&31), as one instruction.
	return state*pcgMultiplier + inc, uint64(bits.RotateLeft32(xorshifted, -rot))
}

// next advances the state and returns 32 permuted bits.
func (s *Source) next() uint64 {
	var out uint64
	s.state, out = pcgStep(s.state, s.inc)
	return out
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
		if j, ok := bounded(s.next64(), bound); ok {
			return int(j)
		}
	}
}

// bounded is Lemire's rejection test: it maps the 64-bit draw v to
// j in [0, bound) and reports whether v is accepted; a rejected v must be
// replaced by a fresh draw. Intn and the fused loop of ShuffleSlice both
// test through it, so there is one rejection rule.
func bounded(v, bound uint64) (j uint64, ok bool) {
	hi, lo := bits.Mul64(v, bound)
	return hi, lo >= bound || lo >= (-bound)%bound
}

// PermInto fills dst with a pseudo-random permutation of [0, n) and
// returns it, growing dst only when its capacity is below n — and then
// geometrically, so a caller whose n creeps upward (one permutation per
// arrival into a growing swarm) reallocates O(log n) times, not every
// call. It is ShuffleSlice of the identity: the permutation, the draws
// and the final state of a Fisher–Yates shuffle on Intn.
func (s *Source) PermInto(dst []int, n int) []int {
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = i
	}
	ShuffleSlice(s, dst)
	return dst
}

// ShuffleSlice shuffles x in place: Fisher–Yates with j drawn by
// Intn(i+1) for i = len(x)−1 down to 1, so it leaves x and s exactly as
// that loop would. It keeps the generator state in a local and steps it
// with pcgStep and bounded directly instead of a method call chain per
// draw: the hot paths that draw one swap per element (a swarm arrival's
// neighbour sample, a seed's random unchoke) spend much of their time
// here. hi<<32|lo is next64's draw: the first output is the high half.
func ShuffleSlice[E any](s *Source, x []E) {
	state, inc := s.state, s.inc
	for i := len(x) - 1; i > 0; i-- {
		for {
			var hi, lo uint64
			state, hi = pcgStep(state, inc)
			state, lo = pcgStep(state, inc)
			if j, ok := bounded(hi<<32|lo, uint64(i+1)); ok {
				x[i], x[j] = x[j], x[i]
				break
			}
		}
	}
	s.state = state
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
