package descriptor

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func randCollection(r *rand.Rand, n int) *Collection {
	c := NewCollection(vec.Dims, n)
	for i := 0; i < n; i++ {
		v := make(vec.Vector, vec.Dims)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		c.Append(ID(r.Uint32()), v)
	}
	return c
}

func TestEncodedSizeMatchesPaper(t *testing.T) {
	// Paper §5.2: "each descriptor consumes 100 bytes".
	if EncodedSize != 100 {
		t.Fatalf("EncodedSize = %d, want 100", EncodedSize)
	}
}

func TestAppendAt(t *testing.T) {
	c := NewCollection(3, 0)
	c.Append(7, vec.Vector{1, 2, 3})
	c.Append(9, vec.Vector{4, 5, 6})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	d := c.At(1)
	if d.ID != 9 || !vec.Equal(d.Vec, vec.Vector{4, 5, 6}) {
		t.Fatalf("At(1) = %+v", d)
	}
	if c.IDAt(0) != 7 {
		t.Fatalf("IDAt(0) = %d", c.IDAt(0))
	}
}

func TestAppendDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCollection(3, 0)
	c.Append(1, vec.Vector{1, 2})
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	c := randCollection(r, 257)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	wantSize := 20 + 257*EncodedSize
	if buf.Len() != wantSize {
		t.Fatalf("encoded size = %d, want %d", buf.Len(), wantSize)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() || got.Dims() != c.Dims() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.Len(), got.Dims(), c.Len(), c.Dims())
	}
	for i := 0; i < c.Len(); i++ {
		if got.IDAt(i) != c.IDAt(i) || !vec.Equal(got.Vec(i), c.Vec(i)) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c := randCollection(r, int(nRaw)%50)
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Len() != c.Len() {
			return false
		}
		for i := 0; i < c.Len(); i++ {
			if got.IDAt(i) != c.IDAt(i) || !vec.Equal(got.Vec(i), c.Vec(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("NOTMAGICxxxxxxxxxxxxxxxx")
	if _, err := Read(buf); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := randCollection(r, 10)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-37]
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestReadHostileHeaderCount pins the count guard: a header whose record
// count the input cannot back must produce an error — never a panic —
// having allocated no more than the read buffers (about 2 MB): nothing
// is sized from the header alone.
func TestReadHostileHeaderCount(t *testing.T) {
	for _, hostile := range []struct {
		dims, count uint64
		body        int // record bytes after the header
	}{
		{24, 1 << 62, 300},   // count*rec overflows int
		{24, 1 << 40, 300},   // huge but non-overflowing count
		{4096, 1 << 22, 300}, // max dims × large count
		{24, 1000, 300},      // plausible count the payload cannot back
		{24, 10_000_000, 0},  // header only
	} {
		head := make([]byte, headerSize)
		copy(head, fileMagic)
		binary.LittleEndian.PutUint32(head[8:12], uint32(hostile.dims))
		binary.LittleEndian.PutUint64(head[12:20], hostile.count)
		payload := append(head, make([]byte, hostile.body)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(payload))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("dims %d count %d: expected error, got none", hostile.dims, hostile.count)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Fatalf("dims %d count %d: allocated %.1f MB, want at most 4 MB", hostile.dims, hostile.count, float64(alloc)/(1<<20))
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := randCollection(r, 64)
	path := filepath.Join(t.TempDir(), "coll.desc")
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 64 {
		t.Fatalf("Len = %d", got.Len())
	}
}

func TestSubset(t *testing.T) {
	c := NewCollection(2, 0)
	for i := 0; i < 5; i++ {
		c.Append(ID(i), vec.Vector{float32(i), float32(i)})
	}
	s := c.Subset([]int{4, 0, 2})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.IDAt(0) != 4 || s.IDAt(1) != 0 || s.IDAt(2) != 2 {
		t.Fatalf("Subset order wrong: %v %v %v", s.IDAt(0), s.IDAt(1), s.IDAt(2))
	}
}

func TestBounds(t *testing.T) {
	c := NewCollection(2, 0)
	c.Append(0, vec.Vector{-1, 5})
	c.Append(1, vec.Vector{3, -2})
	b := c.Bounds()
	if b.Min[0] != -1 || b.Min[1] != -2 || b.Max[0] != 3 || b.Max[1] != 5 {
		t.Fatalf("Bounds = %+v", b)
	}
}

func TestImageOf(t *testing.T) {
	id := ID(uint32(37)<<DescriptorsPerImageShift | 5)
	if id.ImageOf() != 37 {
		t.Fatalf("ImageOf = %d, want 37", id.ImageOf())
	}
}

func BenchmarkWrite10k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	c := randCollection(r, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead10k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	c := randCollection(r, 10000)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
