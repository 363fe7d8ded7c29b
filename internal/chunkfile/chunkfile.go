// Package chunkfile implements the paper's chunk index architecture
// (§4.2): two files, a chunk file and an index file.
//
// The chunk file holds all retained descriptors grouped by chunk; all
// descriptors of a chunk are stored together and chunks are stored
// sequentially, each padded to occupy full disk pages. A chunk's body is
// columnar: its Count IDs as little-endian uint32, then its Count × dims
// float32 row block, so one read lands the chunk in memory already laid
// out as the rows a scan consumes. The index file stores, per chunk and
// in chunk-file order, the chunk's centroid, its bounding radius, and its
// location in the chunk file.
package chunkfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/vec"
)

// PageSize is the disk page granularity chunks are padded to: the 8 KiB
// page of the paper's 2005 machine. Every chunk file and manifest records
// it, and Open and ReadManifest reject any other recorded page.
const PageSize = 8192

// maxWriteBuffer caps the write buffer Write and writeIndex size to the
// file they write.
const maxWriteBuffer = 1 << 20

// The chunk file header is a magic, a version byte, then dims, page size
// and chunk count as little-endian uint32s. Version 2 is the columnar
// body; a later body change bumps the version byte, not the magic. Any
// other magic, the unversioned interleaved layout's among them, is
// ErrBadMagic.
const (
	chunkMagic   = "EFF2CHKV"
	chunkVersion = 2
	indexMagic   = "EFF2CIDX"
)

// headerLen is the chunk file header's length: the first chunk starts on
// the first page boundary at or after it.
const headerLen = 8 + 1 + 12

// hostLittleEndian reports that a 4-byte word in memory is its own
// little-endian encoding, so a chunk body read straight into a Block
// needs no byte swap.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Meta describes one chunk as recorded in the index file. In a Store's
// Meta(), Centroid aliases row i of the store's Centroids() matrix.
type Meta struct {
	Centroid vec.Vector
	Radius   float64
	Offset   int64 // byte offset of the chunk in the chunk file
	Bytes    int   // padded on-disk length in bytes
	Count    int   // number of descriptors
}

// EntrySize returns the on-disk size of one index entry for the given
// dimensionality: centroid + radius + offset + bytes + count.
func EntrySize(dims int) int { return dims*4 + 8 + 8 + 4 + 4 }

// CentroidMatrix returns the contiguous row-major matrix the metas'
// centroids alias — what Store.Centroids returns for a store's own Meta()
// — or nil when they are not laid out that way (metas assembled by hand).
func CentroidMatrix(metas []Meta) []float32 {
	if len(metas) == 0 {
		return nil
	}
	first := metas[0].Centroid
	dims, n := len(first), len(metas)
	if dims == 0 || cap(first) < n*dims {
		return nil
	}
	mat := first[:n*dims]
	for i := range metas {
		if c := metas[i].Centroid; len(c) != dims || &c[0] != &mat[i*dims] {
			return nil
		}
	}
	return mat
}

// LayoutCentroids copies the metas' centroids into one fresh row-major
// matrix, re-points every Centroid at its row and returns the matrix: how
// a store assembled from other stores' metas or from clusters (MemStore,
// the shard router's concatenated store) builds its Centroids().
func LayoutCentroids(metas []Meta, dims int) []float32 {
	mat := make([]float32, len(metas)*dims)
	for i := range metas {
		row := mat[i*dims : (i+1)*dims]
		copy(row, metas[i].Centroid)
		metas[i].Centroid = row
	}
	return mat
}

// RecordSize returns the on-disk size of one descriptor: a 4-byte ID
// plus dims float32 components. A chunk body of count descriptors is
// exactly count × RecordSize bytes (the ID column, then the row block).
func RecordSize(dims int) int { return 4 + dims*4 }

// PaddedBytes returns the padded on-disk size of a chunk of count
// descriptors: the raw records rounded up to full pages. This is the
// balancing weight the shard partitioner uses, and exactly the Bytes
// value Write and NewMemStore record per chunk.
func PaddedBytes(count, dims int) int {
	return pageCeil(count * RecordSize(dims))
}

// Data is the payload of one chunk. Callers must treat IDs and Vecs as
// read-only: depending on the Store they may alias store-owned memory
// (MemStore), the Data's own block, which the next ReadChunk into it
// overwrites (FileStore), or a refcounted cache entry (chunkcache) pinned
// until the next read into the same Data.
type Data struct {
	IDs  []descriptor.ID
	Vecs []float32 // flattened, Count × dims
	// FailedReads counts the read attempts that failed while serving this
	// ReadChunk, and Stall the simulated wait between them (retry backoff),
	// in a fault-tolerant store. Stores that retry or fail over set both
	// on every call (zero for a clean read); the plain stores never touch
	// them. Consumers price each failed attempt at the chunk's read time,
	// bill it and the stall to the owning machine's simdisk.Pipeline, and
	// zero both before the next read, so a query is billed for exactly the
	// retries its reads needed.
	FailedReads int
	Stall       time.Duration
	dims        int
	pin         Pin // releases the rows' alias when the Data moves on
	// block is the Data-owned columnar memory a FileStore read lands in;
	// own reports that IDs and Vecs point into it. Alias points IDs/Vecs
	// at store- or cache-owned memory while the block is retained, so a
	// read following any number of aliased reads still reuses it and the
	// steady-state read path stays allocation-free. TakeBlock hands the
	// block to a cache in exchange for a spare.
	block Block
	own   bool
}

// Block is one chunk's memory in the columnar layout: the Count IDs, then
// the Count × dims float32 row block, one 4-byte word each. It is the
// unit a FileStore read fills and a cache entry holds.
type Block []uint32

// Rows returns views of the first count rows of a block laid out for
// dims: the ID column and the row block. b must hold count × (dims+1)
// words.
func (b Block) Rows(count, dims int) ([]descriptor.ID, []float32) {
	b = b[:count*(dims+1)]
	ids := unsafe.Slice((*descriptor.ID)(unsafe.Pointer(unsafe.SliceData(b))), count)
	vecs := unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b[count:]))), count*dims)
	return ids, vecs
}

// bytes returns the block's memory as bytes, the target of one ReadAt.
func (b Block) bytes() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), len(b)*4)
}

// swapWords byte-swaps every word of b in place: on a big-endian host it
// turns the little-endian words of a chunk body read straight into memory
// into native IDs and floats.
func swapWords(b Block) {
	for i, w := range b {
		b[i] = bits.ReverseBytes32(w)
	}
}

// Pin is the handle a store installs alongside aliased rows (Data.Alias):
// as long as the pin is held, the store must keep the rows intact —
// eviction or reuse of the backing buffers must wait for Unpin. The next
// ReadChunk into the same Data (or an explicit Release) unpins, so a pin
// lives exactly as long as the alias the ownership rule grants.
type Pin interface {
	// Unpin releases the hold. It must be safe to call from any goroutine
	// and is called at most once per pin handed out.
	Unpin()
}

// Len returns the number of descriptors in the chunk.
func (d *Data) Len() int { return len(d.IDs) }

// Vec returns the i-th vector, aliasing the chunk buffer.
func (d *Data) Vec(i int) vec.Vector { return vec.Vector(d.Vecs[i*d.dims : (i+1)*d.dims]) }

// Alias installs store-owned rows into d without copying, releasing any
// alias d held before. pin, when non-nil, is unpinned on the next
// ReadChunk into d (or Release) — the discipline that lets a cache evict
// entries by byte budget while never recycling rows a scan still holds.
// d keeps its own block for its next read. Stores hand out aliases with
// this method; plain callers never need it.
func (d *Data) Alias(ids []descriptor.ID, vecs []float32, dims int, pin Pin) {
	d.Release()
	d.IDs = ids
	d.Vecs = vecs
	d.dims = dims
	d.pin = pin
	d.own = false
}

// Release unpins any aliased rows d still holds. ReadChunk releases the
// previous alias automatically, so only callers that park a Data for a
// long time (pools hold pins until the scratch is next used, which is
// bounded and harmless) ever need to call it; a missed Release can delay
// buffer recycling but never corrupts rows.
func (d *Data) Release() {
	if d.pin != nil {
		d.pin.Unpin()
		d.pin = nil
	}
}

// TakeBlock returns a block holding d's rows in the columnar layout, for
// a cache to keep as an entry, and takes spare (possibly nil) in
// exchange. When d's rows are its own block (a FileStore read) that very
// block is handed over with no copy, spare becomes the block d's next
// read fills, and IDs/Vecs keep pointing into the handed-over block: the
// caller now owns that memory and must keep it intact while d uses it,
// as a cache does by aliasing the rows back into d under a pin.
// Otherwise (rows aliased from store memory) the rows are copied into
// spare, grown when too small, which is returned; d is left unchanged.
func (d *Data) TakeBlock(spare Block) Block {
	n := len(d.IDs) * (d.dims + 1)
	if d.own {
		b := d.block[:n]
		d.block, d.own = spare, false
		return b
	}
	if cap(spare) < n {
		spare = make(Block, n)
	}
	spare = spare[:n]
	ids, vecs := spare.Rows(len(d.IDs), d.dims)
	copy(ids, d.IDs)
	copy(vecs, d.Vecs)
	return spare
}

// ownBlock releases d's previous rows and returns d's block sized for
// count rows of dims, growing it when too small. The rows are unset until
// the caller fills the block and calls setOwn.
func (d *Data) ownBlock(count, dims int) Block {
	d.Release()
	d.IDs, d.Vecs, d.dims, d.own = nil, nil, dims, false
	n := count * (dims + 1)
	if cap(d.block) < n {
		d.block = make(Block, n)
	}
	return d.block[:n]
}

// setOwn points d's rows at the first count rows of its own block.
func (d *Data) setOwn(count int) {
	d.IDs, d.Vecs = d.block.Rows(count, d.dims)
	d.own = true
}

// Store is the read interface the search algorithm consumes. FileStore
// serves from the two on-disk files; MemStore serves from memory (used by
// tests and pure-simulation experiments — the timing figures come from the
// simdisk model either way).
//
// Implementations must support concurrent ReadChunk calls as long as each
// caller passes its own Data: the chunk-major batch engine issues reads
// from many worker goroutines against one Store, and one decoded Data may
// then serve many query scans within a scan group. FileStore satisfies
// this with positioned reads (ReadAt) into caller-owned buffers; MemStore
// hands out read-only aliases of store memory.
//
// Ownership of rows (the zero-copy rule): the IDs and Vecs a ReadChunk
// hands out are valid only until the next ReadChunk into the same Data
// value, or until Data.Release — whichever comes first. Within that
// window callers must treat the rows as strictly read-only; they may
// alias store memory (MemStore), the Data's own block the next read
// overwrites (FileStore), or a pinned cache entry (chunkcache) whose
// block is recycled once unpinned. A cache miss over a FileStore takes
// the Data's block as the new entry (Data.TakeBlock) and aliases it back
// under a pin, so the bytes read are the bytes cached. A caller that
// needs rows beyond the window must copy them. No search layer retains
// rows across reads: scans fold rows into their k-NN heaps before the
// next ReadChunk.
type Store interface {
	// Dims returns the descriptor dimensionality.
	Dims() int
	// Meta returns the chunk index in chunk-file order. Callers must not
	// modify it.
	Meta() []Meta
	// Centroids returns every chunk's centroid as one contiguous row-major
	// matrix, len(Meta()) rows of Dims() float32s in chunk-file order: the
	// memory Meta()[i].Centroid aliases, laid out once when the store is
	// built so a query ranks all chunks with one distance-kernel call.
	// Callers must not modify it.
	Centroids() []float32
	// ReadChunk reads chunk i into data, reusing its block. Safe for
	// concurrent use with distinct Data values.
	ReadChunk(i int, data *Data) error
	// Close releases resources.
	Close() error
}

// MachineLayout is an optional Store interface for stores whose chunks
// live on several simulated machines (the shard router's concatenated
// store): Layout returns the machine owning every chunk (one entry per
// Meta entry, read-only and fixed for the store's life) and the machine
// count. Consumers bill each chunk
// to its owner's simdisk.Pipeline, every machine paying the index read
// for its own chunk count, and report the max over the machines — they
// run in parallel. The layout is nominal: it never depends on which
// replica served a read. A store without the interface is one machine.
type MachineLayout interface {
	Layout() (owner []int32, machines int)
}

// Write builds the two files from a clustering. Chunks appear in the
// given cluster order; each cluster's centroid and radius are trusted as
// given (builders recompute exact values beforehand).
func Write(coll *descriptor.Collection, clusters []*cluster.Cluster, chunkPath, indexPath string) error {
	dims := coll.Dims()
	// The first chunk starts on a page boundary after the header.
	offset := int64(pageCeil(headerLen))
	size := int(offset)
	for _, cl := range clusters {
		size += PaddedBytes(cl.Count(), dims)
	}

	cf, err := os.Create(chunkPath)
	if err != nil {
		return fmt.Errorf("chunkfile: create chunk file: %w", err)
	}
	defer cf.Close()
	cw := bufio.NewWriterSize(cf, min(size, maxWriteBuffer))

	// Chunk file header.
	if _, err := cw.WriteString(chunkMagic); err != nil {
		return err
	}
	var head [13]byte
	head[0] = chunkVersion
	binary.LittleEndian.PutUint32(head[1:5], uint32(dims))
	binary.LittleEndian.PutUint32(head[5:9], PageSize)
	binary.LittleEndian.PutUint32(head[9:13], uint32(len(clusters)))
	if _, err := cw.Write(head[:]); err != nil {
		return err
	}

	if err := padTo(cw, headerLen, int(offset)); err != nil {
		return err
	}

	metas := make([]Meta, len(clusters))
	var body []byte // one chunk's padded extent: the ID column, the row block, zeros
	for ci, cl := range clusters {
		n := cl.Count()
		raw := n * RecordSize(dims)
		padded := pageCeil(raw)
		metas[ci] = Meta{
			Centroid: cl.Centroid.Clone(),
			Radius:   cl.Radius,
			Offset:   offset,
			Bytes:    padded,
			Count:    n,
		}
		body = slices.Grow(body[:0], padded)[:padded]
		clear(body[raw:])
		rows := body[4*n:]
		for k, m := range cl.Members {
			binary.LittleEndian.PutUint32(body[4*k:], uint32(coll.IDAt(m)))
			for d, x := range coll.Vec(m) {
				binary.LittleEndian.PutUint32(rows[4*(k*dims+d):], math.Float32bits(x))
			}
		}
		if _, err := cw.Write(body); err != nil {
			return err
		}
		offset += int64(padded)
	}
	if err := cw.Flush(); err != nil {
		return fmt.Errorf("chunkfile: write chunk file: %w", err)
	}
	if err := cf.Sync(); err != nil {
		return fmt.Errorf("chunkfile: sync chunk file: %w", err)
	}

	return writeIndex(indexPath, dims, metas)
}

func writeIndex(path string, dims int, metas []Meta) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("chunkfile: create index file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, min(16+len(metas)*EntrySize(dims), maxWriteBuffer))
	if _, err := w.WriteString(indexMagic); err != nil {
		return err
	}
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(dims))
	binary.LittleEndian.PutUint32(head[4:8], uint32(len(metas)))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	buf := make([]byte, EntrySize(dims))
	for _, m := range metas {
		o := 0
		for _, x := range m.Centroid {
			binary.LittleEndian.PutUint32(buf[o:o+4], math.Float32bits(x))
			o += 4
		}
		binary.LittleEndian.PutUint64(buf[o:o+8], math.Float64bits(m.Radius))
		o += 8
		binary.LittleEndian.PutUint64(buf[o:o+8], uint64(m.Offset))
		o += 8
		binary.LittleEndian.PutUint32(buf[o:o+4], uint32(m.Bytes))
		o += 4
		binary.LittleEndian.PutUint32(buf[o:o+4], uint32(m.Count))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("chunkfile: write index file: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("chunkfile: sync index file: %w", err)
	}
	return nil
}

// pageCeil rounds n up to whole pages.
func pageCeil(n int) int {
	if n%PageSize == 0 {
		return n
	}
	return (n/PageSize + 1) * PageSize
}

func padTo(w *bufio.Writer, from, to int) error {
	for i := from; i < to; i++ {
		if err := w.WriteByte(0); err != nil {
			return err
		}
	}
	return nil
}

// Errors returned by the readers.
var (
	ErrBadMagic = errors.New("chunkfile: bad magic")
	ErrChunkOOB = errors.New("chunkfile: chunk index out of range")
	// ErrPageSize is returned by Open and ReadManifest for a chunk file or
	// manifest that records a page size other than PageSize.
	ErrPageSize = fmt.Errorf("chunkfile: page size is not %d", PageSize)
	// ErrClosed is returned by ReadChunk on a closed store.
	ErrClosed = errors.New("chunkfile: store is closed")
	// ErrUnavailable marks a chunk as unreachable rather than broken: a
	// ReadChunk error wrapping it (errors.Is) tells the search layers the
	// chunk cannot be served right now — every replica is down — and that
	// the query may skip it and complete in degraded mode instead of
	// aborting. The plain stores never return it; the shard router's
	// replicated read path does.
	ErrUnavailable = errors.New("chunkfile: chunk unavailable")
)

// FileStore reads a chunk index from its two files.
type FileStore struct {
	f         *os.File
	dims      int
	metas     []Meta
	centroids []float32 // row-major, aliased by metas[i].Centroid
}

var _ Store = (*FileStore)(nil)

// Open maps the pair of files written by Write.
func Open(chunkPath, indexPath string) (*FileStore, error) {
	metas, dims, err := readIndex(indexPath)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(chunkPath)
	if err != nil {
		return nil, fmt.Errorf("chunkfile: open chunk file: %w", err)
	}
	head, err := readChunkHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	cd := int(binary.LittleEndian.Uint32(head[0:4]))
	page := int(binary.LittleEndian.Uint32(head[4:8]))
	nc := int(binary.LittleEndian.Uint32(head[8:12]))
	if cd != dims {
		f.Close()
		return nil, fmt.Errorf("chunkfile: chunk file dims %d != index dims %d", cd, dims)
	}
	if nc != len(metas) {
		f.Close()
		return nil, fmt.Errorf("chunkfile: chunk file has %d chunks, index has %d", nc, len(metas))
	}
	if page != PageSize {
		f.Close()
		return nil, fmt.Errorf("chunkfile: chunk file records page size %d: %w", page, ErrPageSize)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("chunkfile: stat chunk file: %w", err)
	}
	if err := validateMetas(metas, dims, fi.Size()); err != nil {
		f.Close()
		return nil, err
	}
	return &FileStore{f: f, dims: dims, metas: metas, centroids: CentroidMatrix(metas)}, nil
}

// readChunkHeader reads the chunk file header and returns the 12 bytes
// of dims, page size and chunk count that follow the magic and version
// byte.
func readChunkHeader(f *os.File) (head [12]byte, err error) {
	var pre [9]byte
	if _, err := io.ReadFull(f, pre[:]); err != nil {
		return head, fmt.Errorf("chunkfile: reading chunk header: %w", err)
	}
	if string(pre[:8]) != chunkMagic {
		return head, ErrBadMagic
	}
	if pre[8] != chunkVersion {
		return head, fmt.Errorf("chunkfile: unsupported chunk file version %d", pre[8])
	}
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return head, fmt.Errorf("chunkfile: reading chunk header: %w", err)
	}
	return head, nil
}

// validateMetas cross-checks every index entry against the chunk file's
// header length and actual size, so a corrupt or hostile index file fails
// at open time with a clear error instead of surfacing as ReadAt errors —
// or oversized allocations — in the middle of a query.
func validateMetas(metas []Meta, dims int, fileSize int64) error {
	headerEnd := int64(pageCeil(headerLen))
	for i := range metas {
		m := &metas[i]
		if m.Count < 0 || m.Bytes < 0 {
			return fmt.Errorf("chunkfile: chunk %d: negative count %d or size %d", i, m.Count, m.Bytes)
		}
		if raw := m.Count * RecordSize(dims); raw > m.Bytes {
			return fmt.Errorf("chunkfile: chunk %d: %d records need %d bytes, index records only %d",
				i, m.Count, raw, m.Bytes)
		}
		if m.Offset < headerEnd || m.Offset > fileSize-int64(m.Bytes) {
			return fmt.Errorf("chunkfile: chunk %d: extent [%d, %d) outside chunk file data [%d, %d)",
				i, m.Offset, m.Offset+int64(m.Bytes), headerEnd, fileSize)
		}
	}
	return nil
}

func readIndex(path string) ([]Meta, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("chunkfile: read index file: %w", err)
	}
	if len(raw) < 16 || string(raw[:8]) != indexMagic {
		return nil, 0, ErrBadMagic
	}
	dims := int(binary.LittleEndian.Uint32(raw[8:12]))
	n := int(binary.LittleEndian.Uint32(raw[12:16]))
	if dims <= 0 || dims > 4096 {
		return nil, 0, fmt.Errorf("chunkfile: implausible index dims %d", dims)
	}
	// Bound n by the bytes present before multiplying, so a hostile
	// header cannot wrap the expected size around to the file's length.
	es := EntrySize(dims)
	if n > (len(raw)-16)/es || len(raw) != 16+n*es {
		return nil, 0, fmt.Errorf("chunkfile: index of %d bytes cannot hold %d entries of %d bytes", len(raw), n, es)
	}
	metas := make([]Meta, n)
	centroids := make([]float32, n*dims)
	o := 16
	for i := 0; i < n; i++ {
		c := vec.Vector(centroids[i*dims : (i+1)*dims])
		for d := 0; d < dims; d++ {
			c[d] = math.Float32frombits(binary.LittleEndian.Uint32(raw[o : o+4]))
			o += 4
		}
		r := math.Float64frombits(binary.LittleEndian.Uint64(raw[o : o+8]))
		o += 8
		off := int64(binary.LittleEndian.Uint64(raw[o : o+8]))
		o += 8
		b := int(binary.LittleEndian.Uint32(raw[o : o+4]))
		o += 4
		cnt := int(binary.LittleEndian.Uint32(raw[o : o+4]))
		o += 4
		metas[i] = Meta{Centroid: c, Radius: r, Offset: off, Bytes: b, Count: cnt}
	}
	return metas, dims, nil
}

// Dims implements Store.
func (s *FileStore) Dims() int { return s.dims }

// Meta implements Store.
func (s *FileStore) Meta() []Meta { return s.metas }

// Centroids implements Store.
func (s *FileStore) Centroids() []float32 { return s.centroids }

// ReadChunk implements Store. It issues exactly one positioned read of
// the chunk's Count × RecordSize body bytes straight into the Data's own
// block, which IDs and Vecs then point into with no decode, mirroring the
// paper's one-chunk-one-read access pattern (the simulated model bills
// the padded extent, Meta.Bytes, either way). The block is kept in data
// and reused by later calls, so steady-state reads do not allocate.
func (s *FileStore) ReadChunk(i int, data *Data) error {
	if i < 0 || i >= len(s.metas) {
		return ErrChunkOOB
	}
	m := s.metas[i]
	blk := data.ownBlock(m.Count, s.dims)
	if _, err := s.f.ReadAt(blk.bytes(), m.Offset); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return fmt.Errorf("chunkfile: chunk %d: %w", i, ErrClosed)
		}
		return fmt.Errorf("chunkfile: chunk %d: %w", i, err)
	}
	if !hostLittleEndian {
		swapWords(blk)
	}
	data.setOwn(m.Count)
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }

// MemStore is an in-memory Store with the same padded-size accounting as
// FileStore, so simulated timings are identical.
type MemStore struct {
	dims      int
	metas     []Meta
	centroids []float32
	ids       [][]descriptor.ID
	vecs      [][]float32
	closed    bool
}

var _ Store = (*MemStore)(nil)

// NewMemStore builds an in-memory store from a clustering.
func NewMemStore(coll *descriptor.Collection, clusters []*cluster.Cluster) *MemStore {
	dims := coll.Dims()
	s := &MemStore{dims: dims}
	offset := int64(PageSize)
	for _, cl := range clusters {
		padded := PaddedBytes(cl.Count(), dims)
		s.metas = append(s.metas, Meta{
			Centroid: cl.Centroid,
			Radius:   cl.Radius,
			Offset:   offset,
			Bytes:    padded,
			Count:    cl.Count(),
		})
		ids := make([]descriptor.ID, 0, cl.Count())
		vs := make([]float32, 0, cl.Count()*dims)
		for _, m := range cl.Members {
			ids = append(ids, coll.IDAt(m))
			vs = append(vs, coll.Vec(m)...)
		}
		s.ids = append(s.ids, ids)
		s.vecs = append(s.vecs, vs)
		offset += int64(padded)
	}
	s.centroids = LayoutCentroids(s.metas, dims)
	return s
}

// Dims implements Store.
func (s *MemStore) Dims() int { return s.dims }

// Meta implements Store.
func (s *MemStore) Meta() []Meta { return s.metas }

// Centroids implements Store.
func (s *MemStore) Centroids() []float32 { return s.centroids }

// ReadChunk implements Store. The returned slices alias the store's own
// memory (no copy): Data is read-only by contract, and skipping the copy
// keeps the in-memory hot path at zero bytes moved per chunk.
func (s *MemStore) ReadChunk(i int, data *Data) error {
	if s.closed {
		return fmt.Errorf("chunkfile: chunk %d: %w", i, ErrClosed)
	}
	if i < 0 || i >= len(s.metas) {
		return ErrChunkOOB
	}
	data.Alias(s.ids[i], s.vecs[i], s.dims, nil)
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.closed = true
	return nil
}
