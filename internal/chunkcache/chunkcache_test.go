package chunkcache

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/chunkfile"
	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/faultstore"
	"repro/internal/race"
	"repro/internal/vec"
)

// makeStores builds a small collection clustered into chunks and returns
// a MemStore plus a FileStore over the identical layout.
func makeStores(t testing.TB, n, chunks int) (*chunkfile.MemStore, *chunkfile.FileStore) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	coll := descriptor.NewCollection(vec.Dims, n)
	v := make(vec.Vector, vec.Dims)
	for i := 0; i < n; i++ {
		for d := range v {
			v[d] = float32(r.NormFloat64() * 10)
		}
		coll.Append(descriptor.ID(1000+i), v)
	}
	members := make([][]int, chunks)
	for i := 0; i < n; i++ {
		members[i%chunks] = append(members[i%chunks], i)
	}
	cs := make([]*cluster.Cluster, chunks)
	for i := range cs {
		cs[i] = cluster.NewFromMembers(coll, members[i])
	}
	mem := chunkfile.NewMemStore(coll, cs)
	dir := t.TempDir()
	cp, ip := filepath.Join(dir, "c.chunk"), filepath.Join(dir, "c.idx")
	if err := chunkfile.Write(coll, cs, cp, ip); err != nil {
		t.Fatal(err)
	}
	fs, err := chunkfile.Open(cp, ip)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return mem, fs
}

// readSum reads chunk i and folds its rows into a checksum.
func readSum(t testing.TB, st chunkfile.Store, i int, data *chunkfile.Data) float64 {
	t.Helper()
	if err := st.ReadChunk(i, data); err != nil {
		t.Fatalf("ReadChunk(%d): %v", i, err)
	}
	return sumRows(data)
}

func sumRows(data *chunkfile.Data) float64 {
	s := 0.0
	for _, id := range data.IDs {
		s += float64(id)
	}
	for _, x := range data.Vecs {
		s += float64(x)
	}
	return s
}

// TestCachingStoreEquivalence pins that a CachingStore returns rows
// byte-identical to the store it fronts, on both plain store kinds, on
// both the miss and the hit path.
func TestCachingStoreEquivalence(t *testing.T) {
	mem, fs := makeStores(t, 300, 7)
	for name, inner := range map[string]chunkfile.Store{"mem": mem, "file": fs} {
		t.Run(name, func(t *testing.T) {
			cs := NewStore(inner, New(1<<20))
			var want, got chunkfile.Data
			for pass := 0; pass < 2; pass++ { // pass 0 misses, pass 1 hits
				for i := range inner.Meta() {
					if err := inner.ReadChunk(i, &want); err != nil {
						t.Fatal(err)
					}
					if err := cs.ReadChunk(i, &got); err != nil {
						t.Fatal(err)
					}
					if len(got.IDs) != len(want.IDs) || len(got.Vecs) != len(want.Vecs) {
						t.Fatalf("pass %d chunk %d: shape (%d,%d) != (%d,%d)",
							pass, i, len(got.IDs), len(got.Vecs), len(want.IDs), len(want.Vecs))
					}
					for j := range want.IDs {
						if got.IDs[j] != want.IDs[j] {
							t.Fatalf("pass %d chunk %d: id[%d] %d != %d", pass, i, j, got.IDs[j], want.IDs[j])
						}
					}
					for j := range want.Vecs {
						if got.Vecs[j] != want.Vecs[j] {
							t.Fatalf("pass %d chunk %d: vec[%d] %v != %v", pass, i, j, got.Vecs[j], want.Vecs[j])
						}
					}
					if got.Stall != 0 {
						t.Fatalf("pass %d chunk %d: stall %v on a clean read", pass, i, got.Stall)
					}
				}
			}
			st := cs.Stats()
			n := int64(len(inner.Meta()))
			if st.Hits != n || st.Misses != n {
				t.Fatalf("stats hits=%d misses=%d, want %d each", st.Hits, st.Misses, n)
			}
			got.Release()
			want.Release()
		})
	}
}

// TestCacheHitIsZeroCopy pins the zero-copy handout: two Datas that hit
// the same cached chunk alias the same backing arrays.
func TestCacheHitIsZeroCopy(t *testing.T) {
	mem, _ := makeStores(t, 120, 3)
	cs := NewStore(mem, New(1<<20))
	var a, b chunkfile.Data
	if err := cs.ReadChunk(1, &a); err != nil { // miss fills the cache
		t.Fatal(err)
	}
	if err := cs.ReadChunk(1, &a); err != nil { // hit aliases the entry
		t.Fatal(err)
	}
	if err := cs.ReadChunk(1, &b); err != nil {
		t.Fatal(err)
	}
	if &a.Vecs[0] != &b.Vecs[0] || &a.IDs[0] != &b.IDs[0] {
		t.Fatal("two hits on the same chunk returned distinct backing arrays; handout is copying")
	}
	a.Release()
	b.Release()
}

// TestMissAdoptsReadBlock pins the miss path over a FileStore: the cache
// entry is the very block the miss read into, with no copy. The miss
// leaves the reader's rows where a plain read into the same Data puts
// them, and a hit through a second Data returns the same memory.
func TestMissAdoptsReadBlock(t *testing.T) {
	_, fs := makeStores(t, 120, 3)
	cs := NewStore(fs, New(1<<20))
	var a, b chunkfile.Data
	if err := fs.ReadChunk(1, &a); err != nil { // a's block, sized for chunk 1
		t.Fatal(err)
	}
	block := &a.IDs[0]
	if err := cs.ReadChunk(1, &a); err != nil { // miss: read into that block, taken as the entry
		t.Fatal(err)
	}
	if &a.IDs[0] != block {
		t.Fatal("the miss left the reader's rows outside the block it read into")
	}
	if err := cs.ReadChunk(1, &b); err != nil { // hit
		t.Fatal(err)
	}
	if &b.Vecs[0] != &a.Vecs[0] || &b.IDs[0] != block {
		t.Fatal("a hit after a FileStore miss returned other memory; the miss copied its rows")
	}
	if st := cs.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits %d misses %d, want 1 each", st.Hits, st.Misses)
	}
	// The Data's next read must not land in the block the cache now owns.
	if err := fs.ReadChunk(0, &a); err != nil {
		t.Fatal(err)
	}
	if &a.IDs[0] == block {
		t.Fatal("the reader kept the block it handed to the cache")
	}
	a.Release()
	b.Release()
}

// thrashing returns a CachingStore over a FileStore of 128 equal chunks
// of 500 descriptors whose cache holds one chunk per stripe, so reading
// the chunks in a cycle misses and evicts on every read, and the cycle
// position.
func thrashing(tb testing.TB) (*CachingStore, func() int) {
	_, fs := makeStores(tb, 128*500, 128)
	per := int64(500*(vec.Dims+1)*4 + entryOverhead)
	cs := NewStore(fs, New(stripeCount*per*3/2))
	i := 0
	return cs, func() int {
		i = (i + 1) % 128
		return i
	}
}

// TestMissPathZeroAlloc pins the steady state of a thrashing cache over
// a FileStore: every read misses, evicts and takes the read block, and
// none allocates — the evicted entries' blocks become the reader's next
// read buffers.
func TestMissPathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	cs, next := thrashing(t)
	var d chunkfile.Data
	read := func() {
		if err := cs.ReadChunk(next(), &d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*128; i++ {
		read()
	}
	if allocs := testing.AllocsPerRun(500, read); allocs != 0 {
		t.Errorf("steady-state miss allocates %v per read, want 0", allocs)
	}
	if st := cs.Stats(); st.Hits != 0 {
		t.Fatalf("thrashing cache hit %d of %d reads", st.Hits, st.Hits+st.Misses)
	}
	d.Release()
}

// BenchmarkCacheMiss measures the read stage on a miss: a thrashing
// cache over a FileStore, so every read is one positioned read into the
// reader's block, taken as the new entry, plus one eviction.
func BenchmarkCacheMiss(b *testing.B) {
	cs, next := thrashing(b)
	var d chunkfile.Data
	for i := 0; i < 2*128; i++ {
		if err := cs.ReadChunk(next(), &d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cs.ReadChunk(next(), &d); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cs.Stats(); st.Hits != 0 {
		b.Fatalf("thrashing cache hit %d of %d reads", st.Hits, st.Hits+st.Misses)
	}
	d.Release()
}

// TestCacheBudgetAndEviction pins the byte bound: occupancy never
// exceeds the configured budget, evictions happen, and an evicted chunk
// misses on re-read.
func TestCacheBudgetAndEviction(t *testing.T) {
	mem, _ := makeStores(t, 600, 12)
	per := int64(0)
	var data chunkfile.Data
	if err := mem.ReadChunk(0, &data); err != nil {
		t.Fatal(err)
	}
	per = int64(len(data.IDs))*4 + int64(len(data.Vecs))*4 + entryOverhead
	// Room for ~1.5 chunks per stripe: stripes where several of the 12
	// chunks collide must churn.
	c := New(stripeCount * per * 3 / 2)
	cs := NewStore(mem, c)
	for round := 0; round < 3; round++ {
		for i := range mem.Meta() {
			if err := cs.ReadChunk(i, &data); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Bytes > st.MaxBytes {
				t.Fatalf("occupancy %d exceeds budget %d", st.Bytes, st.MaxBytes)
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under a budget smaller than the working set")
	}
	if st.Hits+st.Misses != 3*int64(len(mem.Meta())) {
		t.Fatalf("hits %d + misses %d != reads %d", st.Hits, st.Misses, 3*len(mem.Meta()))
	}
	data.Release()
}

// TestEvictionNeverFreesPinnedRows is the refcount discipline test: a
// Data holding a pinned entry keeps its rows intact across eviction and
// heavy churn; the buffers are recycled only after Release.
func TestEvictionNeverFreesPinnedRows(t *testing.T) {
	mem, _ := makeStores(t, 400, 8)
	var probe chunkfile.Data
	want := readSum(t, mem, 0, &probe)

	// A cache with room for barely one chunk per stripe: every insert
	// evicts.
	c := New(int64(stripeCount) * 8 * 1024)
	cs := NewStore(mem, c)

	var held chunkfile.Data
	if err := cs.ReadChunk(0, &held); err != nil { // miss: fill
		t.Fatal(err)
	}
	if err := cs.ReadChunk(0, &held); err != nil { // hit: pin
		t.Fatal(err)
	}
	heldVecs := &held.Vecs[0]

	// Churn every other chunk through the cache repeatedly, forcing the
	// held entry out and recycling buffers many times over.
	var churn chunkfile.Data
	for round := 0; round < 50; round++ {
		for i := 1; i < len(mem.Meta()); i++ {
			if err := cs.ReadChunk(i, &churn); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn.Release()

	if got := sumRows(&held); got != want {
		t.Fatalf("pinned rows changed under churn: sum %v != %v", got, want)
	}
	if &held.Vecs[0] != heldVecs {
		t.Fatal("held Data rebound its rows")
	}
	held.Release()
}

// TestInvalidateDropsEntries pins that Invalidate makes every cached
// chunk of the store miss again and re-consult the inner store.
func TestInvalidateDropsEntries(t *testing.T) {
	mem, _ := makeStores(t, 200, 5)
	inner := faultstore.Wrap(mem, faultstore.Config{})
	cs := NewStore(inner, New(1<<20))
	var data chunkfile.Data
	for i := range mem.Meta() {
		if err := cs.ReadChunk(i, &data); err != nil {
			t.Fatal(err)
		}
	}
	before := inner.Reads()
	for i := range mem.Meta() {
		if err := cs.ReadChunk(i, &data); err != nil {
			t.Fatal(err)
		}
	}
	if inner.Reads() != before {
		t.Fatalf("hits consulted the inner store: %d reads, want %d", inner.Reads(), before)
	}
	cs.Invalidate()
	for i := range mem.Meta() {
		if err := cs.ReadChunk(i, &data); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.Reads(); got != before+int64(len(mem.Meta())) {
		t.Fatalf("after Invalidate inner saw %d reads, want %d", got, before+int64(len(mem.Meta())))
	}
	data.Release()
}

// TestFaultstoreComposition is the fault-tolerance satellite: a cached
// hit never consults the (possibly faulty) inner store, a dead store
// still serves its cached chunks, and a death/Revive cycle followed by
// Invalidate serves fresh rows rather than stale ones.
func TestFaultstoreComposition(t *testing.T) {
	mem, _ := makeStores(t, 200, 5)
	fake := faultstore.Wrap(mem, faultstore.Config{})
	cs := NewStore(fake, New(1<<20))
	var data chunkfile.Data

	// Warm chunk 0 and 1 only.
	for _, i := range []int{0, 1} {
		if err := cs.ReadChunk(i, &data); err != nil {
			t.Fatal(err)
		}
	}

	fake.Kill()
	// Cached chunks still serve, without touching the dead store.
	before := fake.Reads()
	if err := cs.ReadChunk(0, &data); err != nil {
		t.Fatalf("cached chunk after Kill: %v", err)
	}
	if fake.Reads() != before {
		t.Fatal("cache hit consulted the dead inner store")
	}
	// Uncached chunks surface the death.
	if err := cs.ReadChunk(3, &data); !errors.Is(err, faultstore.ErrDead) {
		t.Fatalf("uncached chunk after Kill: err=%v, want ErrDead", err)
	}

	// Revive models the operator replacing the disk: stale rows must not
	// survive the cycle once the recovery path invalidates.
	fake.Revive()
	cs.Invalidate()
	reads := fake.Reads()
	if err := cs.ReadChunk(0, &data); err != nil {
		t.Fatal(err)
	}
	if fake.Reads() != reads+1 {
		t.Fatal("read after Revive+Invalidate did not re-consult the inner store")
	}
	data.Release()
}

// TestOversizedChunkIsNotCached pins that a chunk larger than a whole
// stripe budget passes through uncached instead of wiping the stripe.
func TestOversizedChunkIsNotCached(t *testing.T) {
	mem, _ := makeStores(t, 300, 2)
	c := New(stripeCount * 256) // 256-byte stripes, far below one chunk
	cs := NewStore(mem, c)
	var data chunkfile.Data
	for pass := 0; pass < 2; pass++ {
		for i := range mem.Meta() {
			if err := cs.ReadChunk(i, &data); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized chunks were cached: %d entries, %d bytes", st.Entries, st.Bytes)
	}
	if st.Hits != 0 {
		t.Fatalf("phantom hits on an empty cache: %d", st.Hits)
	}
	data.Release()
}

// TestCacheOOB pins the out-of-range contract of the Store interface.
func TestCacheOOB(t *testing.T) {
	mem, _ := makeStores(t, 100, 2)
	cs := NewStore(mem, New(1<<20))
	var data chunkfile.Data
	if err := cs.ReadChunk(-1, &data); !errors.Is(err, chunkfile.ErrChunkOOB) {
		t.Fatalf("ReadChunk(-1) = %v, want ErrChunkOOB", err)
	}
	if err := cs.ReadChunk(2, &data); !errors.Is(err, chunkfile.ErrChunkOOB) {
		t.Fatalf("ReadChunk(2) = %v, want ErrChunkOOB", err)
	}
}

// TestCacheConcurrentStress is the -race stress of the tentpole: many
// goroutines issue mixed hit/miss reads against one CachingStore over a
// budget far smaller than the working set (constant eviction and buffer
// recycling), with concurrent invalidations, on both store kinds. Every
// read's rows must checksum to the chunk's true value — eviction must
// never free or reuse rows a reader still holds.
func TestCacheConcurrentStress(t *testing.T) {
	mem, fs := makeStores(t, 960, 24)

	// Ground truth per chunk.
	var truth []float64
	var data chunkfile.Data
	for i := range mem.Meta() {
		truth = append(truth, readSum(t, mem, i, &data))
	}

	for name, inner := range map[string]chunkfile.Store{"mem": mem, "file": fs} {
		t.Run(name, func(t *testing.T) {
			cs := NewStore(inner, New(int64(stripeCount)*20*1024))
			const goroutines = 8
			const reads = 400
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(g)))
					var d chunkfile.Data
					defer d.Release()
					for n := 0; n < reads; n++ {
						// Zipf-ish skew: half the reads hammer chunk 0-3.
						i := r.Intn(len(truth))
						if r.Intn(2) == 0 {
							i = r.Intn(4)
						}
						if err := cs.ReadChunk(i, &d); err != nil {
							errs[g] = fmt.Errorf("read %d chunk %d: %w", n, i, err)
							return
						}
						if got := sumRows(&d); got != truth[i] {
							errs[g] = fmt.Errorf("read %d chunk %d: sum %v != %v (rows corrupted)", n, i, got, truth[i])
							return
						}
						if n%97 == 0 && g == 0 {
							cs.Invalidate()
						}
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			st := cs.Stats()
			if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 {
				t.Fatalf("stress exercised too little: %+v", st)
			}
		})
	}
}

// TestCodesOnHit pins when an entry carries scan codes: from the hit that
// reaches CodeAt on, on a backend with a code kernel, never before; their
// bytes count against the budget; and a stripe that cannot hold them
// evicts from its LRU tail instead of exceeding the budget. The tight
// budget gives each stripe room for two chunks' rows but not for two
// chunks and one chunk's codes.
func TestCodesOnHit(t *testing.T) {
	mem, _ := makeStores(t, 2000, 16)
	per := int64(125*(vec.Dims+1)*4 + entryOverhead)
	for _, tc := range []struct {
		name   string
		budget int64
	}{{"roomy", 1 << 20}, {"tight", stripeCount * (2*per + 1000)}} {
		t.Run(tc.name, func(t *testing.T) {
			cs := NewStore(mem, New(tc.budget))
			var d chunkfile.Data
			for hit := 0; hit <= CodeAt; hit++ { // one miss, then CodeAt hits
				for i := range mem.Meta() {
					readSum(t, cs, i, &d)
					if coded := d.Codes() != nil; tc.name == "roomy" && coded != (hit == CodeAt && vec.CodeKernel()) {
						t.Fatalf("hit %d of chunk %d: coded %v", hit, i, coded)
					}
					if st := cs.Stats(); st.Bytes > st.MaxBytes {
						t.Fatalf("hit %d of chunk %d: %d bytes over a budget of %d", hit, i, st.Bytes, st.MaxBytes)
					}
				}
			}
			st := cs.Stats()
			if tc.name == "roomy" && vec.CodeKernel() && (st.Coded != len(mem.Meta()) || st.Evictions != 0) {
				t.Fatalf("roomy cache: %+v", st)
			}
			if tc.name == "tight" && vec.CodeKernel() && st.Evictions == 0 {
				t.Fatalf("tight cache coded without evicting: %+v", st)
			}
			d.Release()
		})
	}
}

// TestRecycledEntryDropsCodes pins that codes do not outlive their
// entry's life: an entry that built codes, dropped and reused for the
// same chunk, is charged for its rows only until it builds them again.
func TestRecycledEntryDropsCodes(t *testing.T) {
	mem, _ := makeStores(t, 2000, 16)
	cs := NewStore(mem, New(1<<20))
	var d chunkfile.Data
	readSum(t, cs, 3, &d)
	rows := cs.Stats().Bytes
	for range CodeAt {
		readSum(t, cs, 3, &d)
	}
	if st := cs.Stats(); vec.CodeKernel() && (st.Coded != 1 || st.Bytes <= rows) {
		t.Fatalf("after %d hits: %+v, rows alone %d bytes", CodeAt, st, rows)
	}
	d.Release()
	cs.Invalidate() // unpinned: the entry goes to its stripe's freelist
	readSum(t, cs, 3, &d)
	if st := cs.Stats(); st.Coded != 0 || st.Bytes != rows {
		t.Fatalf("reused entry: %+v, want %d bytes and no codes", st, rows)
	}
	d.Release()
}

// TestThrashingBuildsNoCodes drives serve_cold's shape: a cache holding
// 15% of the index, read uniformly by goroutines that each keep
// several reads pinned. Resident bytes, codes included, never exceed the
// budget, and no entry lives long enough to build codes. Then one chunk
// turns hot amid the thrashing: it builds its codes, and the budget still
// holds.
func TestThrashingBuildsNoCodes(t *testing.T) {
	const chunks = 512
	mem, fs := makeStores(t, chunks*50, chunks)
	per := int64(50*(vec.Dims+1)*4 + entryOverhead)
	for name, inner := range map[string]chunkfile.Store{"mem": mem, "file": fs} {
		t.Run(name, func(t *testing.T) {
			cs := NewStore(inner, New(chunks*15/100*per))
			check := func() {
				if st := cs.Stats(); st.Bytes > st.MaxBytes {
					t.Errorf("%d resident bytes over a budget of %d", st.Bytes, st.MaxBytes)
				}
			}
			read := func(hot int, seed int64) {
				r := rand.New(rand.NewSource(seed))
				var pinned [4]chunkfile.Data
				for n := 0; n < 3000; n++ {
					i := r.Intn(chunks)
					if hot >= 0 && n%2 == 0 {
						i = hot
					}
					if err := cs.ReadChunk(i, &pinned[n%len(pinned)]); err != nil {
						t.Error(err)
						return
					}
					if n%50 == 0 {
						check()
					}
				}
				for i := range pinned {
					pinned[i].Release()
				}
			}
			var wg sync.WaitGroup
			for g := range 4 {
				wg.Add(1)
				go func() { defer wg.Done(); read(-1, int64(g)) }()
			}
			wg.Wait()
			check()
			if st := cs.Stats(); st.Coded != 0 || st.Hits == 0 {
				t.Fatalf("uniform reads: %+v", st)
			}
			for g := range 4 {
				wg.Add(1)
				go func() { defer wg.Done(); read(7, int64(10+g)) }()
			}
			wg.Wait()
			check()
			if st := cs.Stats(); vec.CodeKernel() && st.Coded == 0 {
				t.Fatalf("a chunk hit %d times built no codes: %+v", 4*1500, st)
			}
		})
	}
}
