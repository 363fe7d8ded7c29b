package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/internal/server"
)

// Query shape shared by every workload: the paper's k=30 with a chunk
// budget of 5 per shard (20 chunks per query on the 4-shard index).
const (
	searchK         = 30
	searchMaxChunks = 5
	bagSize         = 20  // descriptors in one /multi image bag
	batchSize       = 100 // queries in one buffered /batch
	streamBatchSize = 25  // queries in one streamed /batch of serve_mixed
	zipfS           = 1.3
)

// class is a request type; the mixed workload reports latency per class.
type class int

const (
	classSearch class = iota
	classMulti
	classBatch  // buffered /batch
	classStream // /batch with stream:true, NDJSON read to the trailer
)

var classNames = [...]string{"search", "multi", "batch", "stream"}

// request is one distinct HTTP request of a workload, encoded once before
// timing so the client's JSON encoding never competes with the server.
type request struct {
	class   class
	path    string
	body    []byte
	queries []repro.Vector // the descriptors the request carries
}

// arrival is one entry of an open-loop schedule.
type arrival struct {
	due time.Duration // since the window opened
	req int           // index into workload.reqs
}

// spec is the fixed definition of a workload; why it exists is recorded
// in BENCHMARK.json and README.md. conns is the connection count of a
// closed loop and the sender pool of an open one, sized there so that a
// slow answer never holds back the next arrival.
type spec struct {
	name       string
	cacheBytes int64
	conns      int
	rate       float64 // open-loop arrivals per second; 0 means closed loop
	warm       int     // requests sent closed-loop before the timed window
	primary    class   // the class the trace attribution table describes
}

var specs = []spec{
	{name: "serve_hot", cacheBytes: 256 << 20, conns: 2, warm: 2000, primary: classSearch},
	{name: "serve_cold", cacheBytes: 16 << 20, conns: 2, warm: 2000, primary: classSearch},
	{name: "batch", cacheBytes: 256 << 20, conns: 1, warm: 20, primary: classBatch},
	{name: "serve_mixed", cacheBytes: 64 << 20, conns: 8, rate: 250, warm: 1000, primary: classSearch},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// workload is a spec made concrete for one seed: the distinct requests
// and, for an open loop, the arrival schedule over them. A closed loop
// cycles reqs in order.
type workload struct {
	spec
	reqs     []request
	schedule []arrival
}

const indexPath = "/v1/indexes/main/"

func searchRequest(q repro.Vector) request {
	body, _ := json.Marshal(server.SearchRequest{Query: q, K: searchK, MaxChunks: searchMaxChunks})
	return request{class: classSearch, path: indexPath + "search", body: body, queries: []repro.Vector{q}}
}

func batchRequest(qs []repro.Vector, stream bool) request {
	wire := make([][]float32, len(qs))
	for i, q := range qs {
		wire[i] = q
	}
	body, _ := json.Marshal(server.BatchRequest{Queries: wire, K: searchK, MaxChunks: searchMaxChunks, Stream: stream})
	c := classBatch
	if stream {
		c = classStream
	}
	return request{class: c, path: indexPath + "batch", body: body, queries: qs}
}

// multiRequest leaves k and max_chunks to the server's defaults (10, 3).
func multiRequest(bag []repro.Vector) request {
	wire := make([][]float32, len(bag))
	for i, q := range bag {
		wire[i] = q
	}
	body, _ := json.Marshal(server.MultiRequest{Descriptors: wire})
	return request{class: classMulti, path: indexPath + "multi", body: body, queries: bag}
}

// windows cuts pool into consecutive groups of size n, dropping a short
// tail.
func windows(pool []repro.Vector, n int) [][]repro.Vector {
	var out [][]repro.Vector
	for i := 0; i+n <= len(pool); i += n {
		out = append(out, pool[i:i+n])
	}
	return out
}

// newWorkload generates the workload's requests from the seed; the
// collection and the open-loop arrival draw have fixed seeds of their
// own. seconds sizes the open-loop schedule.
func newWorkload(sp spec, coll *repro.Collection, seed int64, seconds float64) (*workload, error) {
	w := &workload{spec: sp}
	switch sp.name {
	case "serve_hot":
		pool, err := repro.ZipfQueries(coll, 2000, zipfS, seed)
		if err != nil {
			return nil, err
		}
		for _, q := range pool {
			w.reqs = append(w.reqs, searchRequest(q))
		}
	case "serve_cold":
		pool, err := repro.DatasetQueries(coll, 5000, seed)
		if err != nil {
			return nil, err
		}
		for _, q := range pool {
			w.reqs = append(w.reqs, searchRequest(q))
		}
	case "batch":
		pool, err := repro.ZipfQueries(coll, 2000, zipfS, seed)
		if err != nil {
			return nil, err
		}
		for _, qs := range windows(pool, batchSize) {
			w.reqs = append(w.reqs, batchRequest(qs, false))
		}
	case "serve_mixed":
		pool, err := repro.ZipfQueries(coll, 2000, zipfS, seed)
		if err != nil {
			return nil, err
		}
		byClass := map[class][]int{}
		add := func(r request) {
			byClass[r.class] = append(byClass[r.class], len(w.reqs))
			w.reqs = append(w.reqs, r)
		}
		for _, q := range pool {
			add(searchRequest(q))
		}
		for _, bag := range windows(pool, bagSize) {
			add(multiRequest(bag))
		}
		for _, qs := range windows(pool, streamBatchSize) {
			add(batchRequest(qs, true))
		}
		w.schedule = mixedSchedule(scheduleSeed, sp.rate, seconds, byClass)
	default:
		return nil, fmt.Errorf("unknown workload %q", sp.name)
	}
	if len(w.reqs) == 0 {
		return nil, fmt.Errorf("workload %s: no requests generated", sp.name)
	}
	return w, nil
}

// scheduleSeed fixes the one draw of arrival times and class order every
// open-loop run replays, as collectionSeed fixes the data; --seed chooses
// which descriptors the arrivals ask for. A 12 s window holds 3,000
// arrivals and its tail depends on how the draw happens to clump the
// heavy requests, so versions are compared on the same draw.
const scheduleSeed = 42

// mixedSchedule draws serve_mixed's arrivals. The count is fixed at
// rate × seconds and the class mix at exactly 85/10/5, so the offered
// load is the same for every seed; the seed places the arrivals and
// shuffles the classes over them. Each class cycles its own requests.
func mixedSchedule(seed int64, rate, seconds float64, byClass map[class][]int) []arrival {
	r := rand.New(rand.NewSource(seed))
	dues := arrivalTimes(r, rate, seconds)
	n := len(dues)
	classes := make([]class, n)
	nMulti, nStream := n/10, n/20
	for i := range classes {
		switch {
		case i < nMulti:
			classes[i] = classMulti
		case i < nMulti+nStream:
			classes[i] = classStream
		default:
			classes[i] = classSearch
		}
	}
	r.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	next := map[class]int{}
	out := make([]arrival, n)
	for i := range out {
		ids := byClass[classes[i]]
		out[i] = arrival{due: dues[i], req: ids[next[classes[i]]%len(ids)]}
		next[classes[i]]++
	}
	return out
}

// arrivalTimes places rate × seconds arrivals uniformly over the window
// and returns them in order: a Poisson process given its count, with the
// count the same for every seed.
func arrivalTimes(r *rand.Rand, rate, seconds float64) []time.Duration {
	dues := make([]time.Duration, int(rate*seconds))
	for i := range dues {
		dues[i] = time.Duration(r.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}

// searchSchedule is an open-loop schedule of n = rate × seconds arrivals
// cycling reqs, used by the rate ladder.
func searchSchedule(seed int64, rate, seconds float64, nReqs int) []arrival {
	dues := arrivalTimes(rand.New(rand.NewSource(seed)), rate, seconds)
	out := make([]arrival, len(dues))
	for i := range out {
		out[i] = arrival{due: dues[i], req: i % nReqs}
	}
	return out
}

// issueOrder lists the request indices in the order the workload first
// sends them: the schedule for an open loop, the cycle for a closed one.
func (w *workload) issueOrder() []int {
	if w.schedule != nil {
		out := make([]int, len(w.schedule))
		for i, a := range w.schedule {
			out[i] = a.req
		}
		return out
	}
	out := make([]int, len(w.reqs))
	for i := range out {
		out[i] = i
	}
	return out
}
