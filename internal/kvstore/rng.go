package kvstore

import "math/rand/v2"

// rng is the store's random source: a 16-byte PCG held by value inside
// its owner (a Client or a node), so creating one seeds two words and
// allocates nothing. Streams are deterministic in their seed pair.
type rng struct{ src rand.PCG }

// seededRNG returns the generator for the seed pair (a, b). Both words
// go through a splitmix64 finalizer first: callers pass small, nearly
// equal integers (Config.Seed, a client sequence, a node id), and
// neighbouring seeds must not yield neighbouring streams.
func seededRNG(a, b uint64) rng {
	var r rng
	r.src.Seed(mix64(a), mix64(b))
	return r
}

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// child derives an independent stream from two draws of r.
func (r *rng) child() rng { return seededRNG(r.src.Uint64(), r.src.Uint64()) }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return rand.New(&r.src).IntN(n) }

// normFloat64 returns a standard normal deviate.
func (r *rng) normFloat64() float64 { return rand.New(&r.src).NormFloat64() }
