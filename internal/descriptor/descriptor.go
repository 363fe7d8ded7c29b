// Package descriptor defines the on-disk and in-memory representation of
// local image descriptors and descriptor collections.
//
// Following the paper (§5.2), a descriptor is a 24-dimensional vector of
// floats plus an identifier, consuming exactly 100 bytes on disk
// (4-byte little-endian id + 24 × 4-byte IEEE-754 float32 coordinates).
// Collections are stored sequentially in a single file, as the paper's
// description pipeline does (§4.1).
package descriptor

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/vec"
)

// ID identifies a descriptor within a collection. The high bits carry the
// source image id by convention of the generator (see ImageOf).
type ID uint32

// DescriptorsPerImageShift fixes how generator IDs encode provenance:
// id = imageIndex<<Shift | ordinal. 12 bits allow 4096 descriptors per
// image, far beyond the "few hundreds" the paper reports per image.
const DescriptorsPerImageShift = 12

// ImageOf returns the source image index encoded in a generator-assigned id.
func (id ID) ImageOf() uint32 { return uint32(id) >> DescriptorsPerImageShift }

// Descriptor is one local descriptor: an identifier plus its position in
// 24-dimensional space.
type Descriptor struct {
	ID  ID
	Vec vec.Vector
}

// EncodedSize is the exact on-disk size of one descriptor, matching the
// paper's 100 bytes (id + 24 dims).
const EncodedSize = 4 + vec.Dims*4

// fileMagic identifies a descriptor collection file.
const fileMagic = "EFF2DESC"

// headerSize is magic + uint32 dims + uint64 count.
const headerSize = 8 + 4 + 8

// Collection is an in-memory set of descriptors. Vectors are stored in a
// single contiguous backing array so that a 5M-descriptor collection costs
// one allocation, mirroring the paper's "fits in memory" constraint for the
// static SR-tree build (§2).
type Collection struct {
	dims    int
	ids     []ID
	backing []float32
}

// NewCollection returns an empty collection for vectors of the given
// dimensionality, pre-sized for capacity n.
func NewCollection(dims, n int) *Collection {
	return &Collection{
		dims:    dims,
		ids:     make([]ID, 0, n),
		backing: make([]float32, 0, n*dims),
	}
}

// Dims returns the dimensionality of the collection's vectors.
func (c *Collection) Dims() int { return c.dims }

// Len returns the number of descriptors held.
func (c *Collection) Len() int { return len(c.ids) }

// Append adds a descriptor. The vector is copied.
func (c *Collection) Append(id ID, v vec.Vector) {
	if len(v) != c.dims {
		panic(fmt.Sprintf("descriptor: vector dims %d != collection dims %d", len(v), c.dims))
	}
	c.ids = append(c.ids, id)
	c.backing = append(c.backing, v...)
}

// At returns the i-th descriptor. The returned vector aliases the
// collection's backing array and must not be modified.
func (c *Collection) At(i int) Descriptor {
	return Descriptor{ID: c.ids[i], Vec: c.Vec(i)}
}

// Vec returns the i-th vector, aliasing the backing array.
func (c *Collection) Vec(i int) vec.Vector {
	return vec.Vector(c.backing[i*c.dims : (i+1)*c.dims])
}

// IDAt returns the i-th descriptor id.
func (c *Collection) IDAt(i int) ID { return c.ids[i] }

// Subset returns a new collection holding the descriptors at the given
// indexes (vectors copied).
func (c *Collection) Subset(idx []int) *Collection {
	out := NewCollection(c.dims, len(idx))
	for _, i := range idx {
		out.Append(c.ids[i], c.Vec(i))
	}
	return out
}

// Bounds returns the per-dimension min/max over the whole collection.
func (c *Collection) Bounds() vec.Bounds {
	b := vec.NewBounds(c.dims)
	for i := 0; i < c.Len(); i++ {
		b.Absorb(c.Vec(i))
	}
	return b
}

// errors returned by the decoder.
var (
	ErrBadMagic  = errors.New("descriptor: bad collection file magic")
	ErrTruncated = errors.New("descriptor: truncated collection file")
	ErrBadHeader = errors.New("descriptor: implausible collection header")
)

// Write serializes the collection: header (magic, dims, count) followed by
// count fixed-size records.
func (c *Collection) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	var h [12]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(c.dims))
	binary.LittleEndian.PutUint64(h[4:12], uint64(c.Len()))
	if _, err := bw.Write(h[:]); err != nil {
		return err
	}
	rec := make([]byte, 4+c.dims*4)
	for i := 0; i < c.Len(); i++ {
		encodeRecord(rec, c.ids[i], c.Vec(i))
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a collection previously produced by Write. Records are
// decoded in bulk blocks directly into the backing array — no per-record
// copies — and the collection grows as the blocks arrive, never sized
// from the header alone, so memory stays bounded by the bytes actually
// read. A header count the input cannot back is reported as
// ErrTruncated, never a panic or an unbounded allocation; a header whose
// dims or count no collection could have is ErrBadHeader. Bytes after the
// records the header announces are ignored.
func Read(r io.Reader) (*Collection, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: header: %w", ErrTruncated, err)
	}
	if string(head[:8]) != fileMagic {
		return nil, ErrBadMagic
	}
	dims := int(binary.LittleEndian.Uint32(head[8:12]))
	count64 := binary.LittleEndian.Uint64(head[12:20])
	if dims <= 0 || dims > 4096 {
		return nil, fmt.Errorf("%w: dims %d", ErrBadHeader, dims)
	}
	rec := 4 + dims*4
	if count64 > uint64(math.MaxInt-headerSize)/uint64(rec) {
		return nil, fmt.Errorf("%w: record count %d", ErrBadHeader, count64)
	}
	count := int(count64)
	c := NewCollection(dims, 0)
	blockRecs := (1 << 20) / rec
	if blockRecs < 1 {
		blockRecs = 1
	}
	if blockRecs > count && count > 0 {
		blockRecs = count
	}
	buf := make([]byte, blockRecs*rec)
	for filled := 0; filled < count; {
		n := blockRecs
		if rem := count - filled; n > rem {
			n = rem
		}
		if _, err := io.ReadFull(br, buf[:n*rec]); err != nil {
			return nil, fmt.Errorf("%w: record %d: %w", ErrTruncated, filled, err)
		}
		c.ids = slices.Grow(c.ids, n)[:filled+n]
		c.backing = slices.Grow(c.backing, n*dims)[:(filled+n)*dims]
		DecodeRecords(buf, n, dims, c.ids[filled:], c.backing[filled*dims:])
		filled += n
	}
	return c, nil
}

// SaveFile writes the collection to path, creating or truncating it.
func (c *Collection) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a collection from path.
func LoadFile(path string) (*Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// encodeRecord writes id+vector into rec (len must be 4+dims*4).
func encodeRecord(rec []byte, id ID, v vec.Vector) {
	binary.LittleEndian.PutUint32(rec[0:4], uint32(id))
	for i, x := range v {
		binary.LittleEndian.PutUint32(rec[4+i*4:8+i*4], floatBits(x))
	}
}

// DecodeRecords bulk-decodes n fixed-size records (uint32 id followed by
// dims little-endian float32 coordinates each) from buf into ids[:n] and
// vecs[:n*dims]. This is the one home of the on-disk record layout shared
// by the collection file and the chunk file codecs. On a little-endian
// host a record's float block already is the memory image of its row, so
// each record is one id load and one block copy; any other host assembles
// every coordinate byte by byte. The two are pinned bit-identical.
func DecodeRecords(buf []byte, n, dims int, ids []ID, vecs []float32) {
	if hostLittleEndian {
		decodeRecordsLE(buf, n, dims, ids, vecs)
	} else {
		decodeRecordsPortable(buf, n, dims, ids, vecs)
	}
}

func decodeRecordsPortable(buf []byte, n, dims int, ids []ID, vecs []float32) {
	rec := 4 + dims*4
	for k := 0; k < n; k++ {
		o := k * rec
		ids[k] = ID(binary.LittleEndian.Uint32(buf[o : o+4]))
		o += 4
		base := k * dims
		for d := 0; d < dims; d++ {
			vecs[base+d] = bitsFloat(binary.LittleEndian.Uint32(buf[o : o+4]))
			o += 4
		}
	}
}
