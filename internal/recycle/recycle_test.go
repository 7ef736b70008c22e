package recycle

import "testing"

type thing struct {
	Mark
	buf  []byte
	used bool
}

func (t *thing) Reset() { *t = thing{buf: Trim(t.buf)} }

func newPool() *Pool[*thing] { return &Pool[*thing]{New: func() *thing { return new(thing) }} }

func TestPutResets(t *testing.T) {
	x := &thing{buf: append(make([]byte, 0, 64), "key"...), used: true}
	newPool().Put(x)
	if x.used || len(x.buf) != 0 || cap(x.buf) != 64 {
		t.Fatalf("after Put: used %t, buf len %d cap %d; want a reset object keeping its 64-byte buffer", x.used, len(x.buf), cap(x.buf))
	}
}

func TestSecondPutPanics(t *testing.T) {
	p := newPool()
	x := p.Get()
	p.Put(x)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Put did not panic")
		}
	}()
	p.Put(x)
}

func TestGetClearsTheMark(t *testing.T) {
	p := newPool()
	x := p.Get()
	for i := 0; i < 3; i++ {
		p.Put(x)
		x = p.Get() // recycled or new, it may be Put again
	}
	p.Put(x)
}

func TestPoisonedPutNeverComesBack(t *testing.T) {
	Poison.Store(true)
	defer Poison.Store(false)
	p := newPool()
	put := map[*thing]bool{}
	for i := 0; i < 100; i++ {
		x := p.Get()
		if put[x] {
			t.Fatal("Get returned an object Put under Poison")
		}
		x.used = true
		put[x] = true
		p.Put(x)
		if x.used {
			t.Fatal("Put under Poison did not reset the object")
		}
	}
}

func TestTrim(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  int
		keep bool
	}{
		{"normal", 4 << 10, true},
		{"at the bound", RetainLimit, true},
		{"past the bound", RetainLimit + 1, false},
	} {
		b := make([]byte, 10, tc.cap)
		if got := Trim(b); (got != nil) != tc.keep || len(got) != 0 {
			t.Errorf("%s: Trim of a %d-byte buffer kept %t (len %d), want %t", tc.name, tc.cap, got != nil, len(got), tc.keep)
		}
	}
	if got := Trim(make([]int64, 0, RetainLimit/8+1)); got != nil {
		t.Error("Trim kept a slice of int64 above RetainLimit bytes")
	}
}
