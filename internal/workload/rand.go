package workload

import "math/rand"

// Rand is the data generators' rng: a *rand.Rand whose source replays
// rand.NewSource's output, draw for draw, so every method returns what
// it would over math/rand's own source at the same seed. The bulk
// generators (EncodeUniformDense, DistinctInts) skip the *rand.Rand and
// take raw draws straight from the source's buffer.
type Rand struct {
	*rand.Rand
	src *source
}

// NewRand returns a Rand that starts where rand.New(rand.NewSource(seed))
// starts.
func NewRand(seed int64) *Rand {
	src := new(source)
	src.Seed(seed)
	return &Rand{Rand: rand.New(src), src: src}
}

// math/rand's source is an additive lagged Fibonacci generator: from its
// 608th output on, output k is output k−607 plus output k−273, mod 2^64,
// a sequence the Go 1 compatibility promise freezes.
const (
	lagLong  = 607
	lagShort = 273
	block    = 1024 // outputs computed per refill
)

// source replays rand.NewSource(seed) as a rand.Source64. After a
// refill, buf[lagLong:] is the current block and buf[:lagLong] the 607
// outputs before it, which the next refill reads; pos indexes the next
// output.
type source struct {
	pos int
	buf [lagLong + block]uint64
}

// Seed takes the first 607 outputs from math/rand's own source, which
// holds the seeding table, and leaves them at the end of buf so that
// the next refill carries them to the front.
func (s *source) Seed(seed int64) {
	first := rand.NewSource(seed).(rand.Source64)
	for i := block; i < len(s.buf); i++ {
		s.buf[i] = first.Uint64()
	}
	s.pos = block
}

func (s *source) Uint64() uint64 {
	if s.pos == len(s.buf) {
		s.refill()
	}
	v := s.buf[s.pos]
	s.pos++
	return v
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *source) refill() {
	copy(s.buf[:lagLong], s.buf[block:])
	for i := lagLong; i < len(s.buf); i++ {
		s.buf[i] = s.buf[i-lagLong] + s.buf[i-lagShort]
	}
	s.pos = lagLong
}
