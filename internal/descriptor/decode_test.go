package descriptor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzDecodeRecords pins DecodeRecords — on a little-endian host the
// block-copy path — to the byte-by-byte loop, over arbitrary record bytes,
// counts and dims. Outputs are compared as bit patterns: the bytes are
// mostly not numbers (quiet and signalling NaNs with payloads, denormals,
// negative zero), and float comparison would call NaN unequal to itself.
// Both decoders must also leave everything past the n-th row alone.
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
		n := len(raw) / (4 + dims*4)
		const canary = 0x5ca1ab1e
		decode := func(fn func([]byte, int, int, []ID, []float32)) ([]ID, []uint32) {
			ids, vecs := make([]ID, n+1), make([]float32, (n+1)*dims+1)
			ids[n] = canary
			for i := n * dims; i < len(vecs); i++ {
				vecs[i] = math.Float32frombits(canary)
			}
			fn(raw, n, dims, ids, vecs)
			bits := make([]uint32, len(vecs))
			for i, v := range vecs {
				bits[i] = math.Float32bits(v)
			}
			return ids, bits
		}
		ids, bits := decode(DecodeRecords)
		wantIDs, wantBits := decode(decodeRecordsPortable)
		if !slices.Equal(ids, wantIDs) || !slices.Equal(bits, wantBits) {
			t.Fatalf("dims %d, %d records: DecodeRecords differs from the byte-by-byte decoder", dims, n)
		}
		if ids[n] != canary || bits[len(bits)-1] != canary {
			t.Fatalf("dims %d, %d records: decoder wrote past the last record", dims, n)
		}
	})
}
