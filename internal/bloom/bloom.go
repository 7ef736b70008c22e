// Package bloom implements a classic Bloom filter with double hashing,
// used by the LSM engine's sstable read path to skip tables that cannot
// contain a key. A Bloom filter answers "definitely absent" or "possibly
// present"; it never produces false negatives.
package bloom

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/keyhash"
)

// Filter is a Bloom filter over arbitrary byte keys. The zero value is not
// usable; construct with New or NewWithEstimates.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes uint32
	count  uint64 // number of Add calls, informational
}

// New creates a filter with nbits bits (rounded up to a multiple of 64) and
// the given number of hash functions. nbits and hashes must be positive.
func New(nbits uint64, hashes uint32) *Filter {
	if nbits == 0 {
		nbits = 64
	}
	if hashes == 0 {
		hashes = 1
	}
	words := (nbits + 63) / 64
	return &Filter{
		bits:   make([]uint64, words),
		nbits:  words * 64,
		hashes: hashes,
	}
}

// NewWithEstimates sizes a filter for n expected keys and a target false
// positive rate p, using the standard formulas m = -n·ln p / (ln 2)² and
// k = (m/n)·ln 2.
func NewWithEstimates(n uint64, p float64) *Filter {
	if n == 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return New(m, k)
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) { f.AddHash(keyhash.Of(key)) }

// AddHash inserts the key whose hash is h. Probe positions follow
// Kirsch–Mitzenmacher double hashing over the finalised pair,
// g_i = (fmix64(H1) + i·fmix64(H2) mod 2^64) mod nbits, stepped by one
// wrapping addition per probe; the positions are part of the sstable format.
func (f *Filter) AddHash(h keyhash.Hash) {
	x, step := fmix64(h.H1), fmix64(h.H2)
	for i := uint32(0); i < f.hashes; i++ {
		pos := x % f.nbits
		f.bits[pos/64] |= 1 << (pos % 64)
		x += step
	}
	f.count++
}

// fmix64 is the splitmix64 finaliser. keyhash's FNV-1a values are poorly
// mixed for keys sharing a long prefix — the last bytes enter each through
// one xor and one multiply by the same prime — and double hashing over the
// raw pair sets correlated bits: a 1 % filter measures about 4.5 % on keys
// like "user" + 16 hex digits. Over the finalised pair it measures 1 %.
func fmix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// AddUint64 inserts a fixed-width integer key.
func (f *Filter) AddUint64(key uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	f.Add(buf[:])
}

// MayContain reports whether key is possibly in the filter. A false return
// is definitive: the key was never added.
func (f *Filter) MayContain(key []byte) bool { return f.MayContainHash(keyhash.Of(key)) }

// MayContainHash is MayContain for a key already hashed, so a lookup that
// probes several tables' filters hashes its key once.
func (f *Filter) MayContainHash(h keyhash.Hash) bool {
	x, step := fmix64(h.H1), fmix64(h.H2)
	for i := uint32(0); i < f.hashes; i++ {
		pos := x % f.nbits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
		x += step
	}
	return true
}

// MayContainUint64 is MayContain for fixed-width integer keys.
func (f *Filter) MayContainUint64(key uint64) bool {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	return f.MayContain(buf[:])
}

// Count returns the number of keys added.
func (f *Filter) Count() uint64 { return f.count }

// NumBits returns the filter's bit capacity.
func (f *Filter) NumBits() uint64 { return f.nbits }

// NumHashes returns the number of hash probes per key.
func (f *Filter) NumHashes() uint32 { return f.hashes }

// EstimatedFalsePositiveRate returns the expected false positive rate given
// the number of added keys: (1 - e^{-kn/m})^k.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	k, n, m := float64(f.hashes), float64(f.count), float64(f.nbits)
	return math.Pow(1-math.Exp(-k*n/m), k)
}

// Marshal serializes the filter to a compact binary form:
//
//	hashes   uint32
//	count    uint64
//	nwords   uint32
//	words    nwords × uint64
func (f *Filter) Marshal() []byte {
	out := make([]byte, 4+8+4+8*len(f.bits))
	binary.LittleEndian.PutUint32(out[0:4], f.hashes)
	binary.LittleEndian.PutUint64(out[4:12], f.count)
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(f.bits)))
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(out[16+8*i:], w)
	}
	return out
}

// ErrCorrupt reports a malformed serialized filter.
var ErrCorrupt = errors.New("bloom: corrupt filter encoding")

// Unmarshal reconstructs a filter serialized by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 16 {
		return nil, ErrCorrupt
	}
	hashes := binary.LittleEndian.Uint32(data[0:4])
	count := binary.LittleEndian.Uint64(data[4:12])
	nwords := binary.LittleEndian.Uint32(data[12:16])
	if hashes == 0 || nwords == 0 {
		return nil, ErrCorrupt
	}
	if uint64(len(data)) != 16+8*uint64(nwords) {
		return nil, ErrCorrupt
	}
	bits := make([]uint64, nwords)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(data[16+8*i:])
	}
	return &Filter{bits: bits, nbits: uint64(nwords) * 64, hashes: hashes, count: count}, nil
}
