package compaction

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseInstanceBasic(t *testing.T) {
	in := `
# the working example
1 2 3 5
1-4
3-5
6-8
7 8 9
`
	inst, err := ParseInstance(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseInstance: %v", err)
	}
	want := WorkingExample()
	if inst.N() != want.N() {
		t.Fatalf("N = %d", inst.N())
	}
	for i := 0; i < inst.N(); i++ {
		if !inst.Table(i).Set.Equal(want.Table(i).Set) {
			t.Errorf("table %d = %v, want %v", i, inst.Table(i).Set, want.Table(i).Set)
		}
	}
}

func TestParseInstanceErrors(t *testing.T) {
	cases := []string{
		"",               // no tables
		"abc",            // bad key
		"5-2",            // descending range
		"1 2\n\n   \n#x", // ok tables then noise — actually valid; see below
		"0-200000000",    // oversized range
		"3-x",            // bad range end
	}
	for i, c := range cases {
		_, err := ParseInstance(strings.NewReader(c))
		if i == 3 {
			if err != nil {
				t.Errorf("case %d: valid instance rejected: %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("case %d (%q): accepted", i, c)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(r, 2+r.Intn(8), 200, 40)
		var b strings.Builder
		if err := WriteInstance(&b, inst); err != nil {
			t.Fatal(err)
		}
		got, err := ParseInstance(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("parse of written instance: %v\n%s", err, b.String())
		}
		if got.N() != inst.N() {
			t.Fatalf("N changed: %d -> %d", inst.N(), got.N())
		}
		for i := 0; i < inst.N(); i++ {
			if !got.Table(i).Set.Equal(inst.Table(i).Set) {
				t.Fatalf("table %d changed across round trip", i)
			}
		}
	}
}

func TestWriteInstanceCompressesRanges(t *testing.T) {
	inst := NewInstance(
		// 1..5 plus 9: should render as "1-5 9".
		WorkingExample().Universe().Union(WorkingExample().Table(0).Set),
	)
	var b strings.Builder
	if err := WriteInstance(&b, inst); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "1-9") {
		t.Errorf("expected compressed range in %q", b.String())
	}
}
