// Package rng provides a snapshottable deterministic random source for
// the simulator's randomized components (the random adversary, ACC's
// per-incarnation streams, the adversary lab's streams).
//
// A Counting source produces exactly the stream of rand.NewSource(seed)
// and counts how many values it has produced. Its state is therefore just
// the pair (seed, draws): a restored source replays the seed and skips
// the recorded number of draws, after which it produces exactly the
// sequence the live source would have — bit-identical resumption without
// serializing the generator's internal register.
//
// The package reimplements math/rand's frozen Go 1 source algorithm, an
// additive lagged-Fibonacci generator over a 607-word register with a tap
// of 273, instead of wrapping it. The standard source builds its whole
// register when seeded (5 KB and 1,841 Park–Miller steps), while ACC seeds
// a fresh stream on every restart and draws only a few values from it.
// Here seeding is O(1) and allocation-free: the first 273 draws read only
// register words that no earlier draw has modified, so they are computed
// straight from the seed, and the register is built at the 274th draw.
// Bit-identity with rand.NewSource is pinned by the differential tests
// and the fuzz target in this package, so every seeded run's output is
// unchanged.
package rng

import "math/rand"

const (
	regLen = 607 // register length
	regTap = 273 // lag of the second tap

	int32max = 1<<31 - 1 // Park–Miller modulus
	pmMul    = 48271     // Park–Miller multiplier
)

// Counting is a math/rand Source64 that records how many values it has
// drawn, making its state serializable as (seed, draws).
type Counting struct {
	seed  int64
	draws uint64
	x0    int64 // seed reduced to [1, int32max), the Park–Miller start

	// vec is the register, built at draw regTap+1 and kept across Seed
	// calls; tap and feed index it as in math/rand.
	vec       *[regLen]int64
	tap, feed int
}

// NewCounting returns a counting source seeded like rand.NewSource(seed).
func NewCounting(seed int64) *Counting {
	c := &Counting{}
	c.Seed(seed)
	return c
}

// Int63 implements rand.Source.
func (c *Counting) Int63() int64 { return int64(c.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (c *Counting) Uint64() uint64 {
	c.draws++
	if c.draws <= regTap {
		// Draw k adds words 334−k (the feed) and 607−k (the tap); the
		// draws before it modified only words above 334−k and below 334.
		k := int(c.draws)
		return uint64(word(c.x0, regLen-regTap-k) + word(c.x0, regLen-k))
	}
	if c.draws == regTap+1 {
		c.build()
	}
	c.tap--
	if c.tap < 0 {
		c.tap += regLen
	}
	c.feed--
	if c.feed < 0 {
		c.feed += regLen
	}
	x := c.vec[c.feed] + c.vec[c.tap]
	c.vec[c.feed] = x
	return uint64(x)
}

// build fills the register as math/rand's Seed does and replays the
// regTap additions the draws so far made, leaving tap and feed where
// math/rand's would be after them.
func (c *Counting) build() {
	if c.vec == nil {
		c.vec = new([regLen]int64)
	}
	for i := range c.vec {
		c.vec[i] = word(c.x0, i)
	}
	for k := 1; k <= regTap; k++ {
		c.vec[regLen-regTap-k] += c.vec[regLen-k]
	}
	c.tap, c.feed = regLen-regTap, regLen-2*regTap
}

// Seed implements rand.Source, resetting the draw count. It reduces the
// seed the way math/rand does; the register, if any, is rebuilt lazily.
func (c *Counting) Seed(seed int64) {
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	c.seed, c.draws, c.x0 = seed, 0, x
}

// State returns the source's serializable state.
func (c *Counting) State() (seed int64, draws uint64) { return c.seed, c.draws }

// Restore rewinds the source to the given state: it reseeds and then
// replays draws values, so the next draw is the (draws+1)-th of the
// seed's sequence. Each Int63 or Uint64 call advances the generator
// exactly one step, which is what makes the replay exact; the first
// regTap steps need no replay because those draws are computed from the
// seed alone.
func (c *Counting) Restore(seed int64, draws uint64) {
	c.Seed(seed)
	c.draws = min(draws, regTap)
	for c.draws < draws {
		c.Uint64()
	}
}

var _ rand.Source64 = (*Counting)(nil)

// word returns register word i of a freshly seeded source:
// x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i], where x[j] is the
// Park–Miller sequence x0·48271^j mod (2³¹−1).
func word(x0 int64, i int) int64 { return parkMiller(x0, i) ^ cooked[i] }

func parkMiller(x0 int64, i int) int64 {
	a := x0 * pow[i] % int32max
	b := a * pmMul % int32max
	return a<<40 ^ b<<20 ^ b*pmMul%int32max
}

// pow[i] is 48271^(21+3i) mod (2³¹−1): the Park–Miller multiplier that
// takes the seed to the first value register word i uses.
var pow = func() (p [regLen]int64) {
	x := int64(1)
	for j := 0; j < 21; j++ {
		x = x * pmMul % int32max
	}
	for i := range p {
		p[i] = x
		x = x * pmMul % int32max * pmMul % int32max * pmMul % int32max
	}
	return p
}()

// cooked is math/rand's rngCooked table: the register words of a freshly
// seeded standard source with their Park–Miller part XORed off. It is
// recovered from the first regLen outputs o[k] of rand.NewSource(1),
// whose initial register v inverts in closed form. Output k adds feed
// word 334−k (941−k once the feed wraps) to tap word 607−k; from draw 274
// on the tap word holds output k−273, and the feed word is still initial.
// So v[334−k] = o[k]−o[k−273] for k = 274..334, v[941−k] = o[k]−o[k−273]
// for k = 335..607, and then v[334−k] = o[k]−v[607−k] for k = 1..273.
var cooked = func() (v [regLen]int64) {
	src := rand.NewSource(1).(rand.Source64)
	var o [regLen + 1]int64 // o[k] is output k, k = 1..regLen
	for k := 1; k <= regLen; k++ {
		o[k] = int64(src.Uint64())
	}
	for k := regTap + 1; k <= regLen; k++ {
		i := regLen - regTap - k
		if i < 0 {
			i += regLen
		}
		v[i] = o[k] - o[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		v[regLen-regTap-k] = o[k] - v[regLen-k]
	}
	for i := range v {
		v[i] ^= parkMiller(1, i)
	}
	return v
}()

// init checks the derived constants against the math/rand linked in, on
// a seed other than the one they came from and across the register build
// and its first wrap.
func init() {
	want := rand.NewSource(-1).(rand.Source64)
	got := NewCounting(-1)
	for k := 0; k < 2*regLen; k++ {
		if want.Uint64() != got.Uint64() {
			panic("rng: Counting disagrees with math/rand's source")
		}
	}
}
