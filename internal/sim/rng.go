package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random source with named sub-streams. Experiments
// derive one stream per concern ("datagen/customer", "rep/3", ...) so that
// changing how much randomness one component consumes never perturbs another
// component's values — a property the reproducibility of every figure
// depends on.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a deterministic source rooted at seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Derive returns an independent sub-stream identified by name.
func (g *RNG) Derive(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	sub := g.seed ^ int64(h.Sum64())
	return NewRNG(sub)
}

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// NormFloat64 returns a standard-normal float64.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// IntRange returns a uniform int in [lo, hi] inclusive.
func (g *RNG) IntRange(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Jitter returns v scaled by a factor drawn from N(1, sd), floored at 10% of
// v. It models run-to-run measurement noise so repeated experiment
// repetitions produce a meaningful standard error, exactly as the paper's 10
// repetitions do.
func (g *RNG) Jitter(v Micros, sd float64) Micros {
	f := 1 + g.NormFloat64()*sd
	if f < 0.1 {
		f = 0.1
	}
	return Micros(float64(v) * f)
}

const alphanum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// String returns a random alphanumeric string with length in [lo, hi].
func (g *RNG) String(lo, hi int) string {
	n := g.IntRange(lo, hi)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphanum[g.Intn(len(alphanum))]
	}
	return string(b)
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
