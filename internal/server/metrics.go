package server

import (
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds of the wall-latency histogram,
// exponential from 50µs to ~26s plus a catch-all. Percentiles are read
// off the histogram (reported as a bucket upper bound), which keeps
// recording a single atomic increment — no locks on the hot path.
var latencyBuckets = func() []time.Duration {
	b := make([]time.Duration, 20)
	d := 50 * time.Microsecond
	for i := range b {
		b[i] = d
		d *= 2
	}
	return b
}()

// histogram is a fixed-bucket, lock-free latency histogram.
type histogram struct {
	counts [21]atomic.Int64 // len(latencyBuckets)+1: last is overflow
}

func (h *histogram) record(d time.Duration) {
	for i, ub := range latencyBuckets {
		if d <= ub {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(latencyBuckets)].Add(1)
}

// quantile returns the upper bound of the bucket holding the q-th
// fraction of recorded samples (0 when nothing was recorded).
func (h *histogram) quantile(q float64) time.Duration {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen > rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			return latencyBuckets[len(latencyBuckets)-1] * 2
		}
	}
	return latencyBuckets[len(latencyBuckets)-1] * 2
}

// qpsWindow counts request completions over a sliding 10-second window
// of per-second slots, all atomics so recording is race-clean and
// lock-free.
type qpsWindow struct {
	slots [10]struct {
		sec   atomic.Int64
		count atomic.Int64
	}
}

func (w *qpsWindow) record(now time.Time) {
	sec := now.Unix()
	s := &w.slots[int(sec%int64(len(w.slots)))]
	if s.sec.Load() != sec {
		// New second: claim the slot. A racing recorder may add to the
		// old second's count for an instant; QPS is a gauge, not a ledger.
		s.sec.Store(sec)
		s.count.Store(0)
	}
	s.count.Add(1)
}

// rate returns completions/second averaged over the last 10 seconds.
func (w *qpsWindow) rate(now time.Time) float64 {
	sec := now.Unix()
	var total int64
	for i := range w.slots {
		s := &w.slots[i]
		if age := sec - s.sec.Load(); age >= 0 && age < int64(len(w.slots)) {
			total += s.count.Load()
		}
	}
	return float64(total) / float64(len(w.slots))
}

// Metrics is the server's observable state: atomically maintained
// counters scraped as one JSON document by GET /metrics. All methods are
// safe for concurrent use.
type Metrics struct {
	requests      atomic.Int64 // admitted requests completed (any status)
	ok            atomic.Int64 // 2xx responses
	clientErrors  atomic.Int64 // 4xx other than shed (bad request, 404)
	shedInFlight  atomic.Int64 // 503: in-flight limiter full or draining
	shedTenant    atomic.Int64 // 429: tenant bucket empty
	deadlineMiss  atomic.Int64 // 503: request deadline expired mid-search
	serverErrors  atomic.Int64 // 500: panics and internal failures
	degraded      atomic.Int64 // 200s carrying Degraded=true
	chunksCharged atomic.Int64 // chunks actually read on behalf of requests
	bestEffort    atomic.Int64 // requests admitted with a shrunk budget
	hist          histogram
	qps           qpsWindow
}

// NewMetrics returns zeroed metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// Outcome classifies how a request left the server, at a finer grain
// than the HTTP status (two different 503s — a shed at the door and a
// deadline missed mid-search — are different operational signals).
type Outcome int

// The outcome classes, in roughly decreasing order of health.
const (
	// OutcomeOK is a 2xx response.
	OutcomeOK Outcome = iota
	// OutcomeClientError is a non-shed 4xx (bad request, unknown index).
	OutcomeClientError
	// OutcomeShedInFlight is a 503 from the in-flight limiter or the
	// draining gate.
	OutcomeShedInFlight
	// OutcomeShedTenant is a 429 from a tenant token bucket.
	OutcomeShedTenant
	// OutcomeDeadlineMiss is a 503 from a request deadline expiring
	// mid-search.
	OutcomeDeadlineMiss
	// OutcomeServerError is a 500 (panics included).
	OutcomeServerError
)

// Record records one finished request: its outcome class, wall latency,
// and — for OutcomeOK — the chunks read and whether the result was
// degraded.
func (m *Metrics) Record(o Outcome, wall time.Duration, chunksRead int, degraded bool) {
	m.requests.Add(1)
	m.qps.record(time.Now())
	m.hist.record(wall)
	switch o {
	case OutcomeOK:
		m.ok.Add(1)
		m.chunksCharged.Add(int64(chunksRead))
		if degraded {
			m.degraded.Add(1)
		}
	case OutcomeClientError:
		m.clientErrors.Add(1)
	case OutcomeShedInFlight:
		m.shedInFlight.Add(1)
	case OutcomeShedTenant:
		m.shedTenant.Add(1)
	case OutcomeDeadlineMiss:
		m.deadlineMiss.Add(1)
	case OutcomeServerError:
		m.serverErrors.Add(1)
	}
}

// RecordBestEffort counts one request admitted with a shrunk chunk
// budget instead of being shed.
func (m *Metrics) RecordBestEffort() { m.bestEffort.Add(1) }

// ShardState is one shard's health and serving load in a Snapshot.
type ShardState struct {
	Shard int  `json:"shard"`
	Down  bool `json:"down"`
	// Reads counts the chunk reads this shard actually served (wherever
	// the chunks' primaries live), from Backend.ShardLoads.
	Reads int64 `json:"reads"`
}

// CacheSnapshot is one index's decoded-chunk cache counters in a
// Snapshot, present only for indexes opened with a cache.
type CacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Entries   int   `json:"entries"`
}

// IndexSnapshot is one registered index's state in a Snapshot.
type IndexSnapshot struct {
	Name        string         `json:"name"`
	Chunks      int            `json:"chunks"`
	Descriptors int            `json:"descriptors"`
	Shards      []ShardState   `json:"shards,omitempty"`
	ShardsDown  int            `json:"shards_down"`
	Cache       *CacheSnapshot `json:"cache,omitempty"`
}

// Snapshot is the JSON document served by GET /metrics.
type Snapshot struct {
	// QPS is completions/second averaged over the last 10 seconds.
	QPS float64 `json:"qps"`
	// InFlight is the number of requests currently holding limiter slots.
	InFlight int `json:"in_flight"`
	// Requests is the total requests answered, sheds included.
	Requests int64 `json:"requests"`
	// OK is the total 2xx responses.
	OK int64 `json:"ok"`
	// ClientErrors is the total non-shed 4xx responses.
	ClientErrors int64 `json:"client_errors"`
	// ShedInFlight is the total 503s from the in-flight limiter/draining.
	ShedInFlight int64 `json:"shed_in_flight"`
	// ShedTenant is the total 429s from tenant buckets.
	ShedTenant int64 `json:"shed_tenant"`
	// DeadlineMiss is the total 503s from expired request deadlines.
	DeadlineMiss int64 `json:"deadline_miss"`
	// ServerErrors is the total 500s (panics included).
	ServerErrors int64 `json:"server_errors"`
	// Degraded is the total 200s carrying Degraded=true.
	Degraded int64 `json:"degraded"`
	// ChunksCharged is the total chunks read on behalf of 200s — the
	// server's cumulative budget spend in the system's native currency.
	ChunksCharged int64 `json:"chunks_charged"`
	// BestEffort is the total requests admitted with shrunk budgets.
	BestEffort int64 `json:"best_effort"`
	// WallP50/WallP90/WallP99 are wall-latency percentiles in
	// microseconds, read off a fixed-bucket histogram (bucket upper
	// bounds, not interpolated).
	WallP50Us int64 `json:"wall_p50_us"`
	WallP90Us int64 `json:"wall_p90_us"`
	WallP99Us int64 `json:"wall_p99_us"`
	// Indexes is the per-index and per-shard state.
	Indexes []IndexSnapshot `json:"indexes"`
}

// indexState reports one registered index's shape, shard health and
// per-shard serving load.
func indexState(name string, b Backend) IndexSnapshot {
	is := IndexSnapshot{Name: name, Chunks: b.Chunks(), Descriptors: b.Len(), ShardsDown: b.ShardsDown()}
	loads := b.ShardLoads()
	for s := 0; s < b.Shards(); s++ {
		st := ShardState{Shard: s, Down: b.ShardDown(s)}
		if s < len(loads) { // a racing topology change must not panic
			st.Reads = loads[s].Reads
		}
		is.Shards = append(is.Shards, st)
	}
	return is
}

// Snapshot assembles the current metrics document. inFlight is read
// from the limiter; reg contributes per-index and per-shard state.
func (m *Metrics) Snapshot(inFlight int, reg *Registry) Snapshot {
	snap := Snapshot{
		QPS:           m.qps.rate(time.Now()),
		InFlight:      inFlight,
		Requests:      m.requests.Load(),
		OK:            m.ok.Load(),
		ClientErrors:  m.clientErrors.Load(),
		ShedInFlight:  m.shedInFlight.Load(),
		ShedTenant:    m.shedTenant.Load(),
		DeadlineMiss:  m.deadlineMiss.Load(),
		ServerErrors:  m.serverErrors.Load(),
		Degraded:      m.degraded.Load(),
		ChunksCharged: m.chunksCharged.Load(),
		BestEffort:    m.bestEffort.Load(),
		WallP50Us:     m.hist.quantile(0.50).Microseconds(),
		WallP90Us:     m.hist.quantile(0.90).Microseconds(),
		WallP99Us:     m.hist.quantile(0.99).Microseconds(),
	}
	if reg != nil {
		for _, name := range reg.Names() {
			b, ok := reg.Get(name)
			if !ok {
				continue
			}
			is := indexState(name, b)
			if st := b.CacheStats(); st.Enabled {
				is.Cache = &CacheSnapshot{
					Hits:      st.Hits,
					Misses:    st.Misses,
					Evictions: st.Evictions,
					Bytes:     st.Bytes,
					MaxBytes:  st.MaxBytes,
					Entries:   st.Entries,
				}
			}
			snap.Indexes = append(snap.Indexes, is)
		}
	}
	return snap
}
