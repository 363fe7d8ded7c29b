package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro"
	"repro/internal/chunkcache"
	"repro/internal/chunkfile"
	"repro/internal/knn"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/vec"
)

// perCall runs f in a tight loop for about budget and returns the mean
// nanoseconds per call. One untimed call comes first so lazy set-up and
// buffer growth are not measured.
func perCall(budget time.Duration, f func()) float64 {
	f()
	n := 0
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 8; i++ {
			f()
		}
		n += 8
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeInputs is what the stage probes share: the workload's own
// queries and bodies, its in-process index (with the workload's cache
// size, already warm), and the saved shards opened as plain file stores.
type probeInputs struct {
	w       *workload
	sx      *repro.ShardedIndex
	stores  []*chunkfile.FileStore
	hitRate float64 // chunkcache.hit_rate of the timed run
	budget  time.Duration
}

// probeQueries returns the first n descriptors in the order the workload
// sends them.
func probeQueries(w *workload, n int) []repro.Vector {
	var out []repro.Vector
	for _, ri := range w.issueOrder() {
		for _, q := range w.reqs[ri].queries {
			if len(out) == n {
				return out
			}
			out = append(out, q)
		}
	}
	return out
}

func wireResult(res *repro.Result) server.SearchResponse {
	out := server.SearchResponse{
		Neighbors:   make([]server.WireNeighbor, len(res.Neighbors)),
		ChunksRead:  res.ChunksRead,
		SimulatedUs: res.Simulated.Microseconds(),
		WallUs:      res.Wall.Microseconds(),
		Exact:       res.Exact,
	}
	for i, nb := range res.Neighbors {
		out.Neighbors[i] = server.WireNeighbor{ID: uint32(nb.ID), Dist: nb.Dist}
	}
	return out
}

// probeResult is the probe metrics by name plus the two figures the
// attribution table needs beside them.
type probeResult struct {
	metrics         map[string]float64
	chunksPerQuery  float64 // chunks SearchInto read per query
	storeUsPerChunk float64 // hit and miss cost mixed by the timed run's hit rate
}

// runProbes times each layer's public functions in isolation.
func runProbes(in probeInputs) (*probeResult, error) {
	m := map[string]float64{}
	queries := probeQueries(in.w, 400)
	if len(queries) < batchSize {
		return nil, fmt.Errorf("probes: workload %s has only %d descriptors", in.w.name, len(queries))
	}
	opts := repro.SearchOptions{K: searchK, MaxChunks: searchMaxChunks}
	next := 0
	nextQuery := func() repro.Vector {
		q := queries[next%len(queries)]
		next++
		return q
	}

	// Front door: the server's JSON decode and encode, on the workload's
	// primary request class.
	var bodies [][]byte
	for _, r := range in.w.reqs {
		if r.class == in.w.primary && len(bodies) < 200 {
			bodies = append(bodies, r.body)
		}
	}
	var decodeErr error
	bi := 0
	m["server.decode_us"] = perCall(in.budget, func() {
		body := bodies[bi%len(bodies)]
		bi++
		var err error
		if in.w.primary == classSearch {
			var req server.SearchRequest
			err = json.Unmarshal(body, &req)
		} else {
			var req server.BatchRequest
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			decodeErr = err
		}
	}) / 1e3
	if decodeErr != nil {
		return nil, fmt.Errorf("probes: decode: %w", decodeErr)
	}

	batchRes := make([]repro.Result, batchSize)
	if err := in.sx.SearchBatchInto(queries[:batchSize], repro.BatchOptions{SearchOptions: opts}, batchRes); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	var payload any = wireResult(&batchRes[0])
	if in.w.primary != classSearch {
		br := server.BatchResponse{Results: make([]server.SearchResponse, batchSize)}
		for i := range batchRes {
			br.Results[i] = wireResult(&batchRes[i])
			br.ChunksRead += batchRes[i].ChunksRead
		}
		payload = br
	}
	m["server.encode_us"] = perCall(in.budget, func() { json.Marshal(payload) }) / 1e3

	// Facade: the like-for-like in-library cost of what each endpoint runs.
	var res repro.Result
	var facadeErr error
	chunks, searches := 0, 0
	m["repro.search_into_us"] = perCall(in.budget, func() {
		if err := in.sx.SearchInto(nextQuery(), opts, &res); err != nil {
			facadeErr = err
		}
		chunks += res.ChunksRead
		searches++
	}) / 1e3
	chunksPerQuery := float64(chunks) / float64(searches)
	bo := 0
	m["repro.batch_into_us_per_query"] = perCall(in.budget, func() {
		lo := bo % (len(queries) - batchSize + 1)
		bo += batchSize
		if err := in.sx.SearchBatchInto(queries[lo:lo+batchSize], repro.BatchOptions{SearchOptions: opts}, batchRes); err != nil {
			facadeErr = err
		}
	}) / 1e3 / batchSize
	mo := 0
	m["repro.multi_us_per_descriptor"] = perCall(in.budget, func() {
		lo := mo % (len(queries) - bagSize + 1)
		mo += bagSize
		if _, err := in.sx.MultiSearch(queries[lo:lo+bagSize], repro.MultiSearchOptions{}); err != nil {
			facadeErr = err
		}
	}) / 1e3 / bagSize
	if facadeErr != nil {
		return nil, fmt.Errorf("probes: facade: %w", facadeErr)
	}

	// Search primitives: rank over the four shards' chunk indexes, then
	// the scan of the chunks a query's rank order picks.
	var ranked []search.RankedChunk
	var suffix []float64
	m["search.rank_us"] = perCall(in.budget, func() {
		q := nextQuery()
		for _, st := range in.stores {
			ranked = search.RankChunks(q, st.Meta(), ranked[:0])
			suffix = search.SuffixBounds(ranked, suffix[:0])
		}
	}) / 1e3

	// picks[i] holds, for scan query i, each shard's top chunks decoded.
	const scanQueries = 16
	type pick struct {
		q      repro.Vector
		shards [][]*chunkfile.Data
	}
	decoded := map[[2]int]*chunkfile.Data{}
	picks := make([]pick, scanQueries)
	for i := range picks {
		picks[i].q = queries[i*len(queries)/scanQueries]
		for s, st := range in.stores {
			ranked = search.RankChunks(picks[i].q, st.Meta(), ranked[:0])
			var top []*chunkfile.Data
			for _, rc := range ranked[:min(searchMaxChunks, len(ranked))] {
				key := [2]int{s, rc.Idx}
				if decoded[key] == nil {
					d := &chunkfile.Data{}
					if err := st.ReadChunk(rc.Idx, d); err != nil {
						return nil, fmt.Errorf("probes: %w", err)
					}
					decoded[key] = d
				}
				top = append(top, decoded[key])
			}
			picks[i].shards = append(picks[i].shards, top)
		}
	}
	heap := knn.NewHeap(searchK)
	var d2 []float64
	pi, scanned := 0, 0
	scanNs := perCall(in.budget, func() {
		p := &picks[pi%len(picks)]
		pi++
		for _, top := range p.shards {
			heap.Reset(searchK)
			for _, d := range top {
				d2 = search.ScanChunk(p.q, vec.Dims, d, heap, d2)
				scanned++
			}
		}
	})
	// perCall's untimed first call scanned too; both counts include it.
	m["search.scan_us_per_chunk"] = scanNs * float64(pi) / float64(scanned) / 1e3

	// Kernel and heap, on one real chunk and one query's real distance
	// stream.
	first := picks[0].shards[0]
	one := first[0]
	out := make([]float64, one.Len())
	kernelNs := perCall(in.budget, func() { vec.SquaredDistancesTo(picks[0].q, one.Vecs, vec.Dims, out) })
	m["vec.kernel_gb_per_s"] = float64(len(one.Vecs)*4) / kernelNs
	type offer struct {
		id repro.ID
		d2 float64
	}
	var stream []offer
	for _, d := range first {
		dist := make([]float64, d.Len())
		vec.SquaredDistancesTo(picks[0].q, d.Vecs, vec.Dims, dist)
		for r, v := range dist {
			stream = append(stream, offer{d.IDs[r], v})
		}
	}
	m["knn.offer_ns"] = perCall(in.budget, func() {
		heap.Reset(searchK)
		for _, o := range stream {
			heap.OfferSquared(o.id, o.d2)
		}
	}) / float64(len(stream))

	// Store: a plain positioned read plus decode, then the same chunk
	// through the cache when resident and when the cache thrashes.
	st := in.stores[0]
	nChunks := len(st.Meta())
	var data chunkfile.Data
	var storeErr error
	ci, readBytes := 0, 0
	stride := func() int {
		ci = (ci + 37) % nChunks
		return ci
	}
	reads := 0
	readNs := perCall(in.budget, func() {
		i := stride()
		if err := st.ReadChunk(i, &data); err != nil {
			storeErr = err
		}
		readBytes += st.Meta()[i].Bytes
		reads++
	})
	m["chunkfile.read_us_per_chunk"] = readNs / 1e3
	m["chunkfile.read_mb_per_s"] = float64(readBytes) / float64(reads) / readNs * 1e3

	resident := chunkcache.NewStore(st, chunkcache.New(1<<30))
	for i := 0; i < nChunks; i++ {
		if err := resident.ReadChunk(i, &data); err != nil {
			storeErr = err
		}
	}
	m["chunkcache.hit_us_per_chunk"] = perCall(in.budget, func() {
		if err := resident.ReadChunk(stride(), &data); err != nil {
			storeErr = err
		}
	}) / 1e3
	// A cache smaller than the cycle it is read in evicts every chunk
	// before its next use, so every read is a miss with an eviction.
	thrash := chunkcache.NewStore(st, chunkcache.New(int64(nChunks/8+1)*int64(st.Meta()[0].Bytes)))
	seq := 0
	m["chunkcache.miss_us_per_chunk"] = perCall(in.budget, func() {
		seq = (seq + 1) % nChunks
		if err := thrash.ReadChunk(seq, &data); err != nil {
			storeErr = err
		}
	}) / 1e3
	data.Release()
	if storeErr != nil {
		return nil, fmt.Errorf("probes: store: %w", storeErr)
	}
	if ts := thrash.Stats(); ts.Hits*20 > ts.Misses {
		return nil, fmt.Errorf("probes: thrashing cache hit %d of %d reads", ts.Hits, ts.Hits+ts.Misses)
	}

	storeUs := in.hitRate*m["chunkcache.hit_us_per_chunk"] + (1-in.hitRate)*m["chunkcache.miss_us_per_chunk"]
	m["repro.unattributed_us"] = m["repro.search_into_us"] -
		(m["search.rank_us"] + chunksPerQuery*(storeUs+m["search.scan_us_per_chunk"]))
	return &probeResult{metrics: m, chunksPerQuery: chunksPerQuery, storeUsPerChunk: storeUs}, nil
}
