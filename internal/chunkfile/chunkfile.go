// Package chunkfile implements the paper's chunk index architecture
// (§4.2): two files, a chunk file and an index file.
//
// The chunk file holds all retained descriptors grouped by chunk; all
// descriptors of a chunk are stored together and chunks are stored
// sequentially, each padded to occupy full disk pages. The index file
// stores, per chunk and in chunk-file order, the chunk's centroid, its
// bounding radius, and its location in the chunk file.
package chunkfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/vec"
)

// DefaultPageSize is the disk page granularity chunks are padded to.
const DefaultPageSize = 8192

const (
	chunkMagic = "EFF2CHNK"
	indexMagic = "EFF2CIDX"
)

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

// RecordSize returns the on-disk size of one descriptor record: a 4-byte
// ID followed by dims float32 components.
func RecordSize(dims int) int { return 4 + dims*4 }

// PaddedBytes returns the padded on-disk size of a chunk of count
// descriptors: the raw records rounded up to full pages. This is the
// balancing weight the shard partitioner uses, and exactly the Bytes
// value Write and NewMemStore record per chunk.
func PaddedBytes(count, dims, pageSize int) int {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return pageCeil(count*RecordSize(dims), pageSize)
}

// Data is the decoded payload of one chunk. Callers must treat IDs and
// Vecs as read-only: depending on the Store they may alias store-owned
// memory (MemStore), buffers reused by the next ReadChunk (FileStore),
// or a refcounted cache entry (chunkcache) pinned until the next read
// into the same Data.
type Data struct {
	IDs  []descriptor.ID
	Vecs []float32 // flattened, Count × dims
	// FailedReads counts the read attempts that failed while serving this
	// ReadChunk, and Stall the simulated wait between them (retry backoff),
	// in a fault-tolerant store. Stores that retry or fail over set both
	// on every call (zero for a clean read); the plain stores never touch
	// them. Consumers price each failed attempt at the chunk's read time
	// under their own cost model, bill it and the stall to the owning
	// machine's simdisk.Pipeline, and zero both before the next read, so a
	// query is billed for exactly the retries its reads needed.
	FailedReads int
	Stall       time.Duration
	dims        int
	buf         []byte // FileStore read scratch, reused across ReadChunk calls
	pin         Pin    // releases the rows' alias when the Data moves on
	// ownIDs and ownVecs are the Data-owned decode scratch. decode always
	// writes into them and points IDs/Vecs at them; Alias points IDs/Vecs
	// at store- or cache-owned memory while the scratch is retained — so
	// a decode following any number of aliased reads still reuses the
	// scratch and the steady-state read path stays allocation-free.
	ownIDs  []descriptor.ID
	ownVecs []float32
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
// Stores hand out aliases with this method; plain callers never need it.
func (d *Data) Alias(ids []descriptor.ID, vecs []float32, dims int, pin Pin) {
	d.Release()
	d.IDs = ids
	d.Vecs = vecs
	d.dims = dims
	d.pin = pin
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
// Ownership of decoded rows (the zero-copy rule): the IDs and Vecs a
// ReadChunk hands out are valid only until the next ReadChunk into the
// same Data value, or until Data.Release — whichever comes first. Within
// that window callers must treat the rows as strictly read-only; they
// may alias store memory (MemStore), Data-owned scratch the next read
// overwrites (FileStore), or a pinned cache entry (chunkcache) whose
// buffers are recycled once unpinned. A caller that needs rows beyond
// the window must copy them. No search layer retains rows across reads:
// scans fold rows into their k-NN heaps before the next ReadChunk.
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
	// ReadChunk decodes chunk i into data, reusing its buffers. Safe for
	// concurrent use with distinct Data values.
	ReadChunk(i int, data *Data) error
	// Close releases resources.
	Close() error
}

// MachineLayout is an optional Store interface for stores whose chunks
// live on several simulated machines (the shard router's concatenated
// store): Layout returns the machine owning every chunk (one entry per
// Meta entry, read-only) and the machine count. Consumers bill each chunk
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
func Write(coll *descriptor.Collection, clusters []*cluster.Cluster, chunkPath, indexPath string, pageSize int) error {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	dims := coll.Dims()

	cf, err := os.Create(chunkPath)
	if err != nil {
		return fmt.Errorf("chunkfile: create chunk file: %w", err)
	}
	defer cf.Close()
	cw := bufio.NewWriterSize(cf, 1<<20)

	// Chunk file header.
	if _, err := cw.WriteString(chunkMagic); err != nil {
		return err
	}
	var head [12]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(dims))
	binary.LittleEndian.PutUint32(head[4:8], uint32(pageSize))
	binary.LittleEndian.PutUint32(head[8:12], uint32(len(clusters)))
	if _, err := cw.Write(head[:]); err != nil {
		return err
	}

	// The first chunk starts on a page boundary after the header.
	offset := int64(pageCeil(8+12, pageSize))
	if err := padTo(cw, 8+12, int(offset)); err != nil {
		return err
	}

	metas := make([]Meta, len(clusters))
	rec := make([]byte, RecordSize(dims))
	for ci, cl := range clusters {
		raw := cl.Count() * len(rec)
		padded := pageCeil(raw, pageSize)
		metas[ci] = Meta{
			Centroid: cl.Centroid.Clone(),
			Radius:   cl.Radius,
			Offset:   offset,
			Bytes:    padded,
			Count:    cl.Count(),
		}
		for _, m := range cl.Members {
			binary.LittleEndian.PutUint32(rec[0:4], uint32(coll.IDAt(m)))
			v := coll.Vec(m)
			for d, x := range v {
				binary.LittleEndian.PutUint32(rec[4+d*4:8+d*4], math.Float32bits(x))
			}
			if _, err := cw.Write(rec); err != nil {
				return err
			}
		}
		for p := raw; p < padded; p++ {
			if err := cw.WriteByte(0); err != nil {
				return err
			}
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
	w := bufio.NewWriterSize(f, 1<<20)
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

func pageCeil(n, page int) int {
	if n%page == 0 {
		return n
	}
	return (n/page + 1) * page
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
	page      int
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
	var head [20]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("chunkfile: reading chunk header: %w", err)
	}
	if string(head[:8]) != chunkMagic {
		f.Close()
		return nil, ErrBadMagic
	}
	cd := int(binary.LittleEndian.Uint32(head[8:12]))
	page := int(binary.LittleEndian.Uint32(head[12:16]))
	nc := int(binary.LittleEndian.Uint32(head[16:20]))
	if cd != dims {
		f.Close()
		return nil, fmt.Errorf("chunkfile: chunk file dims %d != index dims %d", cd, dims)
	}
	if nc != len(metas) {
		f.Close()
		return nil, fmt.Errorf("chunkfile: chunk file has %d chunks, index has %d", nc, len(metas))
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("chunkfile: stat chunk file: %w", err)
	}
	if err := validateMetas(metas, dims, page, fi.Size()); err != nil {
		f.Close()
		return nil, err
	}
	return &FileStore{f: f, dims: dims, page: page, metas: metas, centroids: CentroidMatrix(metas)}, nil
}

// validateMetas cross-checks every index entry against the chunk file's
// recorded page size and actual size, so a corrupt or hostile index file
// fails at open time with a clear error instead of surfacing as ReadAt
// errors — or oversized allocations — in the middle of a query.
func validateMetas(metas []Meta, dims, page int, fileSize int64) error {
	if page <= 0 {
		return fmt.Errorf("chunkfile: invalid page size %d", page)
	}
	headerEnd := int64(pageCeil(8+12, page))
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

// PageSize returns the page granularity recorded in the chunk file header.
func (s *FileStore) PageSize() int { return s.page }

// Meta implements Store.
func (s *FileStore) Meta() []Meta { return s.metas }

// Centroids implements Store.
func (s *FileStore) Centroids() []float32 { return s.centroids }

// ReadChunk implements Store. It issues exactly one positioned read of the
// chunk's padded extent, mirroring the paper's one-chunk-one-read access
// pattern. The read buffer is kept in data and reused by later calls, so
// steady-state reads do not allocate.
func (s *FileStore) ReadChunk(i int, data *Data) error {
	if i < 0 || i >= len(s.metas) {
		return ErrChunkOOB
	}
	m := s.metas[i]
	if cap(data.buf) < m.Bytes {
		data.buf = make([]byte, m.Bytes)
	}
	buf := data.buf[:m.Bytes]
	if _, err := s.f.ReadAt(buf, m.Offset); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return fmt.Errorf("chunkfile: chunk %d: %w", i, ErrClosed)
		}
		return fmt.Errorf("chunkfile: chunk %d: %w", i, err)
	}
	decode(buf, m.Count, s.dims, data)
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }

func decode(buf []byte, count, dims int, data *Data) {
	data.Release()
	data.dims = dims
	if cap(data.ownIDs) < count {
		data.ownIDs = make([]descriptor.ID, count)
	}
	data.ownIDs = data.ownIDs[:count]
	if cap(data.ownVecs) < count*dims {
		data.ownVecs = make([]float32, count*dims)
	}
	data.ownVecs = data.ownVecs[:count*dims]
	data.IDs = data.ownIDs
	data.Vecs = data.ownVecs
	descriptor.DecodeRecords(buf, count, dims, data.IDs, data.Vecs)
}

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
func NewMemStore(coll *descriptor.Collection, clusters []*cluster.Cluster, pageSize int) *MemStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	dims := coll.Dims()
	s := &MemStore{dims: dims}
	offset := int64(pageSize)
	rec := RecordSize(dims)
	for _, cl := range clusters {
		raw := cl.Count() * rec
		padded := pageCeil(raw, pageSize)
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
