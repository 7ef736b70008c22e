// Package hll implements the HyperLogLog cardinality estimator of
// Flajolet, Fusy, Gandouet and Meunier (AofA 2007).
//
// The paper's practical SMALLESTOUTPUT compaction strategy keeps one sketch
// per sstable and estimates the cardinality of a candidate merge output by
// merging sketches — "Calculating the cardinality of an output sstable
// without actually merging the input sstables is non-trivial. We estimate
// cardinality of the output sstable using Hyperloglog" (Section 5.1).
// Sketch union is exact for HLL (a pointwise register max), so estimating
// |A ∪ B| costs O(m) register operations instead of a full merge.
package hll

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// MinPrecision and MaxPrecision bound the sketch precision parameter p;
// the sketch uses m = 2^p registers.
const (
	MinPrecision = 4
	MaxPrecision = 18
)

// Sketch is a HyperLogLog cardinality estimator. It is not safe for
// concurrent mutation.
type Sketch struct {
	p         uint8
	registers []uint8
}

// New creates a sketch with precision p (m = 2^p registers). The standard
// relative error is about 1.04/√m; p = 14 gives ≈0.8%.
func New(p uint8) (*Sketch, error) {
	if p < MinPrecision || p > MaxPrecision {
		return nil, fmt.Errorf("hll: precision %d out of range [%d,%d]", p, MinPrecision, MaxPrecision)
	}
	return &Sketch{p: p, registers: make([]uint8, 1<<p)}, nil
}

// MustNew is New but panics on an invalid precision. Intended for package
// initialization with constant arguments.
func MustNew(p uint8) *Sketch {
	s, err := New(p)
	if err != nil {
		panic(err)
	}
	return s
}

// hash64 mixes a 64-bit key (splitmix64 finalizer); HLL needs well-mixed
// bits since it reads both the top p bits and the trailing-pattern rank.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AddUint64 observes a 64-bit key.
func (s *Sketch) AddUint64(key uint64) {
	s.addHash(hash64(key))
}

func (s *Sketch) addHash(h uint64) {
	idx := h >> (64 - s.p)
	rest := h << s.p
	// Rank: position of the leftmost 1-bit in the remaining 64-p bits.
	rank := uint8(bits.LeadingZeros64(rest|1)) + 1
	if max := uint8(64 - s.p + 1); rank > max {
		rank = max
	}
	if rank > s.registers[idx] {
		s.registers[idx] = rank
	}
}

func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Estimate returns the estimated number of distinct keys observed, with the
// standard small-range (linear counting) and large-range corrections.
func (s *Sketch) Estimate() float64 {
	m := float64(len(s.registers))
	sum := 0.0
	zeros := 0
	for _, r := range s.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	raw := alpha(len(s.registers)) * m * m / sum
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	const two32 = 1 << 32
	if raw > two32/30 {
		return -two32 * math.Log(1-raw/two32)
	}
	return raw
}

// EstimateInt returns Estimate rounded to the nearest integer, never
// negative.
func (s *Sketch) EstimateInt() int {
	e := s.Estimate()
	if e < 0 {
		return 0
	}
	return int(e + 0.5)
}

// ErrPrecisionMismatch reports an attempt to merge sketches of different
// precision.
var ErrPrecisionMismatch = errors.New("hll: precision mismatch")

// Merge folds other into s so that s estimates the cardinality of the union
// of both observed multisets. Merging is exact: the result equals the
// sketch that would have observed both streams.
func (s *Sketch) Merge(other *Sketch) error {
	if s.p != other.p {
		return ErrPrecisionMismatch
	}
	for i, r := range other.registers {
		if r > s.registers[i] {
			s.registers[i] = r
		}
	}
	return nil
}

// Clone returns a deep copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{p: s.p, registers: make([]uint8, len(s.registers))}
	copy(c.registers, s.registers)
	return c
}

// Union returns a fresh sketch of the union of the given sketches' key sets,
// mutating none of them: the primitive behind every candidate-merge estimate
// of the SMALLESTOUTPUT strategy. It returns nil when there is no such
// sketch — none given, one of them nil, or their precisions differ — so that
// a union nobody can estimate carries no sketch rather than a wrong one.
func Union(sketches ...*Sketch) *Sketch {
	var acc *Sketch
	for _, s := range sketches {
		switch {
		case s == nil:
			return nil
		case acc == nil:
			acc = s.Clone()
		case acc.Merge(s) != nil:
			return nil
		}
	}
	return acc
}

// sparseFlag marks a sparse encoding in the header byte's high bit;
// precisions never exceed MaxPrecision (18), so the bit is free.
const sparseFlag = 0x80

// Marshal serializes the sketch, choosing the smaller of two encodings:
// dense (one byte of precision, then all 2^p registers) or sparse (the
// precision with the high bit set, a count, then gap-delta/value pairs
// for the non-zero registers). Sketches over few keys — small sstables —
// are mostly zero registers, and the sparse form keeps their on-disk
// footprint proportional to the data instead of to 2^p.
func (s *Sketch) Marshal() []byte {
	nonZero := 0
	for _, r := range s.registers {
		if r != 0 {
			nonZero++
		}
	}
	// Each sparse pair costs at most 3+1 bytes (uvarint gap up to 2^18,
	// one value byte); only bother when clearly smaller than dense.
	if nonZero*4 < len(s.registers) {
		out := make([]byte, 0, 1+binary.MaxVarintLen32+nonZero*4)
		out = append(out, s.p|sparseFlag)
		out = binary.AppendUvarint(out, uint64(nonZero))
		prev := 0
		for i, r := range s.registers {
			if r == 0 {
				continue
			}
			out = binary.AppendUvarint(out, uint64(i-prev))
			out = append(out, r)
			prev = i
		}
		return out
	}
	out := make([]byte, 1+len(s.registers))
	out[0] = s.p
	copy(out[1:], s.registers)
	return out
}

// Unmarshal reconstructs a sketch serialized by Marshal, accepting both
// the dense and the sparse encoding.
func Unmarshal(data []byte) (*Sketch, error) {
	if len(data) < 1 {
		return nil, errors.New("hll: empty encoding")
	}
	p := data[0] &^ sparseFlag
	if p < MinPrecision || p > MaxPrecision {
		return nil, fmt.Errorf("hll: invalid precision %d", p)
	}
	s := &Sketch{p: p, registers: make([]uint8, 1<<p)}
	if data[0]&sparseFlag == 0 {
		if len(data) != 1+(1<<p) {
			return nil, fmt.Errorf("hll: encoding length %d does not match precision %d", len(data), p)
		}
		copy(s.registers, data[1:])
		return s, nil
	}
	rest := data[1:]
	count, w := binary.Uvarint(rest)
	if w <= 0 {
		return nil, errors.New("hll: truncated sparse count")
	}
	rest = rest[w:]
	idx := -1
	for i := uint64(0); i < count; i++ {
		gap, w := binary.Uvarint(rest)
		if w <= 0 || len(rest) < w+1 {
			return nil, errors.New("hll: truncated sparse entry")
		}
		val := rest[w]
		rest = rest[w+1:]
		next := idx
		if idx < 0 {
			next = int(gap)
		} else {
			next = idx + int(gap)
		}
		if gap == 0 && idx >= 0 || next >= len(s.registers) || val == 0 {
			return nil, errors.New("hll: invalid sparse entry")
		}
		s.registers[next] = val
		idx = next
	}
	if len(rest) != 0 {
		return nil, errors.New("hll: trailing bytes after sparse entries")
	}
	return s, nil
}

// SketchOfUint64s builds a sketch of precision p over the given keys;
// convenience for tests and for sketching whole sstables.
func SketchOfUint64s(p uint8, keys []uint64) (*Sketch, error) {
	s, err := New(p)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		s.AddUint64(k)
	}
	return s, nil
}
