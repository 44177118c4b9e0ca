// Package simrand provides a deterministic pseudo-random source for the
// simulation substrate. All randomness in the repository flows through this
// package so that every experiment, test, and benchmark is exactly
// reproducible from a seed, independent of math/rand global state and of
// iteration order elsewhere in the program.
//
// The generator is xoshiro256**, seeded through splitmix64, the combination
// recommended by the xoshiro authors. Sub-streams derived with Derive are
// statistically independent for distinct names, which lets each simulated
// component (scheduler, device noise, per-app workload, ...) own a private
// stream that does not perturb its siblings when one component draws more
// numbers than before.
package simrand

import (
	"math"
	"math/bits"
)

// Rand is a deterministic random number generator. The zero value is not
// valid; use New or Derive.
type Rand struct {
	s [4]uint64

	// Box-Muller cache for NormFloat64.
	haveGauss bool
	gauss     float64
}

// splitmix64 advances the seed state and returns the next output. It is used
// only to initialize xoshiro state and to hash derivation names.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators constructed with
// the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** must not be seeded with the all-zero state. splitmix64
	// cannot produce four zero outputs in a row, so this is unreachable, but
	// guard anyway: a broken RNG would silently corrupt every experiment.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Derive returns a new generator whose stream is a deterministic function of
// r's original seed material and name. Deriving the same name twice from
// generators in the same state yields identical sub-streams. Derive does not
// consume numbers from r.
func (r *Rand) Derive(name string) *Rand {
	child := &Rand{}
	r.DeriveInto(child, []byte(name))
	return child
}

// DeriveInto is Derive into an existing generator: it overwrites dst with
// the sub-stream Derive(string(name)) would return, without allocating, so
// a component that re-derives a stream per episode can keep one generator.
func (r *Rand) DeriveInto(dst *Rand, name []byte) {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for _, b := range name {
		h ^= uint64(b)
		h *= 1099511628211
	}
	sm := r.s[0] ^ bits.RotateLeft64(r.s[1], 13) ^ h
	*dst = Rand{}
	for i := range dst.s {
		dst.s[i] = splitmix64(&sm)
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 1
	}
}

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Int63 returns a non-negative random int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Int63n returns a uniform random int64 in [0, n). It panics if n <= 0.
// Modulo bias is removed by rejection sampling.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("simrand: Int63n called with n <= 0")
	}
	if n&(n-1) == 0 { // power of two
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	return int(r.Int63n(int64(n)))
}

// Float64 returns a uniform random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. p <= 0 always yields false and
// p >= 1 always yields true.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box-Muller with caching).
func (r *Rand) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// LogNormal returns exp(N(mu, sigma)). It is the workhorse distribution for
// operation costs: strictly positive, right-skewed, like real I/O latencies.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Jitter returns base scaled by a lognormal factor with the given sigma and
// unit median. Jitter(x, 0) == x.
func (r *Rand) Jitter(base float64, sigma float64) float64 {
	if sigma == 0 {
		return base
	}
	return base * r.LogNormal(0, sigma)
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap (Fisher-Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := int(r.Int63n(int64(i + 1)))
		swap(i, j)
	}
}

// Pick returns a uniformly random index into a slice of length n, or -1 for
// an empty slice.
func (r *Rand) Pick(n int) int {
	if n == 0 {
		return -1
	}
	return r.Intn(n)
}

// WeightedPick returns an index sampled in proportion to weights. Negative
// weights are treated as zero. If all weights are zero it falls back to a
// uniform pick. It panics on an empty slice.
func (r *Rand) WeightedPick(weights []float64) int {
	if len(weights) == 0 {
		panic("simrand: WeightedPick on empty slice")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
