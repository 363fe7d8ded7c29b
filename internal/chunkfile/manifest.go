// Sharded on-disk layout: the single chunk/index file pair of §4.2 grows
// to one pair per shard plus a manifest. The manifest records the
// dimensionality, the page size (always PageSize), the replication
// factor, and per shard the file names, the chunk count and how many of
// those chunks are the shard's primaries, so OpenSharded can validate
// each pair against what SaveSharded wrote before any query touches it,
// and the shard layer can lay the replicas out again.
package chunkfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/cluster"
	"repro/internal/descriptor"
)

// The manifest starts with a magic and a version byte, as chunk files
// do; a later layout change bumps the version byte, not the magic. The
// unversioned manifest that preceded it has another magic, so it fails
// with ErrBadMagic instead of being misread.
const (
	manifestMagic   = "EFF2SMFV"
	manifestVersion = 2
)

// ManifestName is the manifest's file name inside a sharded index
// directory.
const ManifestName = "manifest"

// ShardFiles names one shard's file pair, relative to the manifest's
// directory.
type ShardFiles struct {
	ChunkFile string
	IndexFile string
	Chunks    int // physical chunk count, validated on open
	Primary   int // the shard's primary (logical) chunks: the first Primary of its Chunks
}

// Manifest describes a sharded index directory.
type Manifest struct {
	Dims        int
	Replication int // copies of every chunk, each on its own shard
	Shards      []ShardFiles
}

// SaveSharded writes a sharded index into dir: one shard-<i>.chunk /
// shard-<i>.idx pair per shard (each a regular §4.2 two-file index over
// that shard's chunks: its primary[i] primaries, then the replicas placed
// on it) plus the manifest tying them together, which records the
// replication factor and the primary counts. The shard pairs are
// written concurrently, each on its own goroutine into its own files, so
// the bytes do not depend on scheduling; their errors are joined in
// shard order, and the manifest is written last, only when every pair
// succeeded.
func SaveSharded(coll *descriptor.Collection, shards [][]*cluster.Cluster, primary []int, replication int, dir string) error {
	if len(shards) == 0 {
		return errors.New("chunkfile: no shards to save")
	}
	if len(primary) != len(shards) {
		return fmt.Errorf("chunkfile: %d primary counts for %d shards", len(primary), len(shards))
	}
	m := &Manifest{Dims: coll.Dims(), Replication: replication, Shards: make([]ShardFiles, len(shards))}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, clusters := range shards {
		sf := ShardFiles{
			ChunkFile: fmt.Sprintf("shard-%d.chunk", i),
			IndexFile: fmt.Sprintf("shard-%d.idx", i),
			Chunks:    len(clusters),
			Primary:   primary[i],
		}
		m.Shards[i] = sf
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Write(coll, clusters, filepath.Join(dir, sf.ChunkFile), filepath.Join(dir, sf.IndexFile)); err != nil {
				errs[i] = fmt.Errorf("chunkfile: shard %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return WriteManifest(filepath.Join(dir, ManifestName), m)
}

// OpenSharded opens every shard named by the manifest in dir, returning
// one FileStore per shard in shard order. Each pair is cross-checked
// against the manifest (dimensionality, chunk count) on top of the pair's
// own open-time validation, which rejects a page size other than
// PageSize as ReadManifest does; any failure closes the stores
// already opened.
func OpenSharded(dir string) ([]*FileStore, *Manifest, error) {
	m, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, nil, err
	}
	stores := make([]*FileStore, 0, len(m.Shards))
	closeAll := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	for i, sf := range m.Shards {
		chunkPath := filepath.Join(dir, sf.ChunkFile)
		indexPath := filepath.Join(dir, sf.IndexFile)
		st, err := Open(chunkPath, indexPath)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("chunkfile: shard %d (%s, %s): %w", i, chunkPath, indexPath, err)
		}
		switch {
		case st.Dims() != m.Dims:
			err = fmt.Errorf("dims %d != manifest dims %d", st.Dims(), m.Dims)
		case len(st.Meta()) != sf.Chunks:
			err = fmt.Errorf("%d chunks != manifest's %d", len(st.Meta()), sf.Chunks)
		}
		if err != nil {
			st.Close()
			closeAll()
			return nil, nil, fmt.Errorf("chunkfile: shard %d (%s, %s): %w", i, chunkPath, indexPath, err)
		}
		stores = append(stores, st)
	}
	return stores, m, nil
}

// WriteManifest writes the manifest to path.
func WriteManifest(path string, m *Manifest) error {
	if len(m.Shards) == 0 {
		return errors.New("chunkfile: manifest has no shards")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("chunkfile: create manifest: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	w.WriteString(manifestMagic)
	w.WriteByte(manifestVersion)
	writeU32 := func(v int) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		w.Write(b[:])
	}
	writeStr := func(s string) {
		writeU32(len(s))
		w.WriteString(s)
	}
	writeU32(m.Dims)
	writeU32(PageSize)
	writeU32(m.Replication)
	writeU32(len(m.Shards))
	for _, sf := range m.Shards {
		writeU32(sf.Chunks)
		writeU32(sf.Primary)
		writeStr(sf.ChunkFile)
		writeStr(sf.IndexFile)
	}
	if err := w.Flush(); err != nil { // a bufio.Writer keeps its first error
		return fmt.Errorf("chunkfile: write manifest: %w", err)
	}
	return f.Sync()
}

// ReadManifest reads a manifest written by WriteManifest.
func ReadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chunkfile: read manifest: %w", err)
	}
	if len(raw) < len(manifestMagic)+1 || string(raw[:len(manifestMagic)]) != manifestMagic {
		return nil, ErrBadMagic
	}
	if v := raw[len(manifestMagic)]; v != manifestVersion {
		return nil, fmt.Errorf("chunkfile: unsupported manifest version %d", v)
	}
	o := len(manifestMagic) + 1
	readU32 := func() (int, error) {
		if o+4 > len(raw) {
			return 0, fmt.Errorf("chunkfile: manifest truncated at byte %d", o)
		}
		v := int(binary.LittleEndian.Uint32(raw[o : o+4]))
		o += 4
		return v, nil
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n < 0 || o+n > len(raw) {
			return "", fmt.Errorf("chunkfile: manifest truncated at byte %d", o)
		}
		s := string(raw[o : o+n])
		o += n
		return s, nil
	}
	m := &Manifest{}
	var page, n int
	for _, v := range []*int{&m.Dims, &page, &m.Replication, &n} {
		if *v, err = readU32(); err != nil {
			return nil, err
		}
	}
	if m.Dims <= 0 {
		return nil, fmt.Errorf("chunkfile: manifest dims %d invalid", m.Dims)
	}
	if page != PageSize {
		return nil, fmt.Errorf("chunkfile: manifest records page size %d: %w", page, ErrPageSize)
	}
	if n <= 0 || n > len(raw) { // each shard entry takes well over one byte
		return nil, fmt.Errorf("chunkfile: manifest shard count %d invalid", n)
	}
	if m.Replication < 1 || m.Replication > n {
		return nil, fmt.Errorf("chunkfile: manifest replication %d invalid over %d shards", m.Replication, n)
	}
	for i := 0; i < n; i++ {
		var sf ShardFiles
		if sf.Chunks, err = readU32(); err != nil {
			return nil, err
		}
		if sf.Primary, err = readU32(); err != nil {
			return nil, err
		}
		if sf.ChunkFile, err = readStr(); err != nil {
			return nil, err
		}
		if sf.IndexFile, err = readStr(); err != nil {
			return nil, err
		}
		if sf.Chunks < 0 || sf.Primary < 0 || sf.Primary > sf.Chunks {
			return nil, fmt.Errorf("chunkfile: manifest shard %d entry invalid", i)
		}
		// File names must stay inside the manifest's directory: reject
		// absolute paths, ".." traversal and empty names, so a hostile
		// manifest cannot make OpenSharded read outside its index dir.
		if !filepath.IsLocal(sf.ChunkFile) || !filepath.IsLocal(sf.IndexFile) {
			return nil, fmt.Errorf("chunkfile: manifest shard %d names a non-local path", i)
		}
		m.Shards = append(m.Shards, sf)
	}
	if o != len(raw) {
		return nil, fmt.Errorf("chunkfile: manifest has %d trailing bytes", len(raw)-o)
	}
	return m, nil
}
