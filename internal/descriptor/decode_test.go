package descriptor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzDecodeRecords pins Read's record decoder to a byte-by-byte
// reference over arbitrary record bytes and dims: the bytes are framed
// as a collection file whose header announces as many whole records as
// they hold. Outputs are compared as bit patterns: the bytes are mostly
// not numbers (quiet and signalling NaNs with payloads, denormals,
// negative zero), and float comparison would call NaN unequal to itself.
// The decoded collection must write back to exactly the records read,
// the bytes after the last whole record must be ignored, and a header
// announcing one record more must be ErrTruncated, so the decoder never
// takes a partial record for a whole one. Zero dims is ErrBadHeader.
func FuzzDecodeRecords(f *testing.F) {
	nan := make([]byte, 0, 3*(4+3*4))
	for _, w := range []uint32{7, 0x7fc00001, 0xffc12345, 0x7f800001, 9, 0x80000000, 0x00000001, 0xff800000, 1 << 31, 0x7fffffff, 0, 0xffffffff} {
		nan = binary.LittleEndian.AppendUint32(nan, w)
	}
	f.Add(nan, uint8(3))
	f.Add([]byte{}, uint8(24))
	f.Add([]byte{1, 2, 3, 4}, uint8(0))
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		raw := make([]byte, r.Intn(40*(4+24*4)))
		r.Read(raw)
		f.Add(raw, uint8(r.Intn(40)))
	}
	f.Fuzz(func(t *testing.T, raw []byte, dims8 uint8) {
		dims := int(dims8)
		frame := func(count int) []byte {
			file := []byte(fileMagic)
			file = binary.LittleEndian.AppendUint32(file, uint32(dims))
			file = binary.LittleEndian.AppendUint64(file, uint64(count))
			return append(file, raw...)
		}
		if dims == 0 {
			if _, err := Read(bytes.NewReader(frame(0))); !errors.Is(err, ErrBadHeader) {
				t.Fatalf("zero dims: got %v, want ErrBadHeader", err)
			}
			return
		}
		rec := 4 + dims*4
		n := len(raw) / rec
		c, err := Read(bytes.NewReader(frame(n)))
		if err != nil {
			t.Fatalf("dims %d, %d records: %v", dims, n, err)
		}
		if c.Len() != n || c.Dims() != dims {
			t.Fatalf("read %d records of %d dims, want %d of %d", c.Len(), c.Dims(), n, dims)
		}
		for k := range n {
			r := raw[k*rec : (k+1)*rec]
			if want := ID(binary.LittleEndian.Uint32(r)); c.ids[k] != want {
				t.Fatalf("dims %d, record %d: id %d, want %d", dims, k, c.ids[k], want)
			}
			for d, x := range c.Vec(k) {
				if got, want := math.Float32bits(x), binary.LittleEndian.Uint32(r[4+4*d:]); got != want {
					t.Fatalf("dims %d, record %d dim %d: bits %#x, want %#x", dims, k, d, got, want)
				}
			}
		}
		var out bytes.Buffer
		if err := c.Write(&out); err != nil {
			t.Fatal(err)
		}
		if want := frame(n)[:headerSize+n*rec]; !slices.Equal(out.Bytes(), want) {
			t.Fatalf("dims %d, %d records: write-back differs from the records read", dims, n)
		}
		if _, err := Read(bytes.NewReader(frame(n + 1))); !errors.Is(err, ErrTruncated) {
			t.Fatalf("dims %d: header announcing %d records over %d bytes: got %v, want ErrTruncated", dims, n+1, len(raw), err)
		}
	})
}
