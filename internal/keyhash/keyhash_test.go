package keyhash

import (
	"hash/fnv"
	"testing"
	"testing/quick"
)

// TestOfIsFNV1a: H1 is the standard 64-bit FNV-1a (checked against
// hash/fnv and the published vectors); H2 is the same recurrence started
// from the offset basis XOR 0x9e3779b97f4a7c15, as the sstable format's
// Bloom filters have always derived it.
func TestOfIsFNV1a(t *testing.T) {
	for key, want := range map[string]uint64{
		"":       0xcbf29ce484222325,
		"a":      0xaf63dc4c8601ec8c,
		"foobar": 0x85944171f73967e8,
	} {
		if got := Of([]byte(key)).H1; got != want {
			t.Errorf("H1(%q) = %#x, want %#x", key, got, want)
		}
	}
	check := func(key []byte) bool {
		std := fnv.New64a()
		std.Write(key)
		h2 := uint64(14695981039346656037) ^ 0x9e3779b97f4a7c15
		for _, b := range key {
			h2 ^= uint64(b)
			h2 *= 1099511628211
		}
		got := Of(key)
		return got.H1 == std.Sum64() && got.H2 == h2
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestPlacementPinned: Placement's values, which place every key of a
// sharded directory and a cluster. A change would strand existing keys.
func TestPlacementPinned(t *testing.T) {
	for key, want := range map[string]uint64{
		"":                     0xecba3df2c3383c52,
		"a":                    0xed8170de1919a24d,
		"key-1":                0x82cf29c031760973,
		"foobar":               0x6916ce8b48d4bc55,
		"user0000000000000001": 0xd01f0cc2b926fa14,
		"user00000000deadbeef": 0xd7e79b10a6d80b58,
	} {
		if got := Placement([]byte(key)); got != want {
			t.Errorf("Placement(%q) = %#x, want %#x", key, got, want)
		}
	}
}
