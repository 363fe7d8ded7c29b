package descriptor

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// floatBits and bitsFloat isolate the IEEE-754 reinterpretation used by the
// fixed-width record codec.

func floatBits(f float32) uint32 { return math.Float32bits(f) }

func bitsFloat(b uint32) float32 { return math.Float32frombits(b) }

// hostLittleEndian reports that a float32 in memory is its own
// little-endian encoding, which is what lets decodeRecordsLE copy a
// record's float block instead of assembling it.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeRecordsLE is DecodeRecords on a little-endian host: per record one
// id load and one copy of the dims×4-byte float block straight into the
// row's memory. It moves bytes only, so NaN payloads survive untouched.
func decodeRecordsLE(buf []byte, n, dims int, ids []ID, vecs []float32) {
	rec, row := 4+dims*4, dims*4
	ids, vecs, buf = ids[:n], vecs[:n*dims], buf[:n*rec]
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vecs))), len(vecs)*4)
	for k := range ids {
		r := buf[k*rec : (k+1)*rec]
		ids[k] = ID(binary.LittleEndian.Uint32(r))
		copy(raw[k*row:(k+1)*row], r[4:])
	}
}
