package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Request headers the server honors.
const (
	// HeaderDeadlineMs carries the client's per-request deadline in
	// milliseconds; absent, Config.DefaultDeadline applies.
	HeaderDeadlineMs = "X-Deadline-Ms"
	// HeaderTenant names the tenant whose token bucket pays for the
	// request; absent, DefaultTenant pays.
	HeaderTenant = "X-Tenant"
)

// DefaultTenant is the bucket charged when a request carries no
// X-Tenant header.
const DefaultTenant = "default"

// maxBodyBytes bounds a request body (a 10k-descriptor batch of
// 24-float vectors is ~2.4MB of JSON numbers; 16MB leaves headroom
// without letting one request balloon the heap).
const maxBodyBytes = 16 << 20

// Config tunes the server's robustness envelope. The zero value serves:
// no default deadline, no in-flight cap, no tenant limiting.
type Config struct {
	// DefaultDeadline applies to requests without an X-Deadline-Ms
	// header (0 = none). The deadline is enforced twice: as a real
	// context cancelling the search between chunk charges, and — for
	// requests that set no explicit stop rule — as the simulated
	// MaxTime budget, so the 2005 cost model self-limits to the same
	// horizon the wall clock does.
	DefaultDeadline time.Duration
	// MaxInFlight caps concurrently executing requests; excess requests
	// are shed with 503 immediately instead of queueing (0 = unlimited).
	MaxInFlight int
	// TenantRate is each tenant's sustained budget in chunks/second
	// (0 = unlimited); TenantBurst is the bucket capacity (raised to
	// TenantRate when smaller).
	TenantRate  float64
	TenantBurst float64
	// BestEffort admits a chunk-budget request whose tenant bucket
	// cannot cover its full budget by shrinking MaxChunks to what the
	// bucket holds, instead of shedding with 429. Time-budget and
	// run-to-completion requests are never shrunk — their cost is not
	// denominated in chunks up front — so they still shed.
	BestEffort bool
	// DefaultMaxChunks is the admission cost estimate per query for
	// requests that set no chunk budget (0 = 16). It is an estimate,
	// not a cap: actual spend is settled against the bucket afterwards.
	DefaultMaxChunks int
	// ProbeInterval is the background prober's period (0 = 250ms).
	ProbeInterval time.Duration
	// Clock overrides time.Now for the tenant buckets (tests).
	Clock func() time.Time
}

// Server is the HTTP serving layer: a registry of named indexes behind
// admission control, deadline propagation, metrics, and a shard-health
// prober. Build one with New, expose Handler (or Serve), and retire it
// with Shutdown.
type Server struct {
	cfg      Config
	reg      *Registry
	limiter  *Limiter
	buckets  *TenantBuckets
	metrics  *Metrics
	prober   *Prober
	mux      *http.ServeMux
	draining atomic.Bool

	mu   sync.Mutex
	http *http.Server
}

// New assembles a server over reg. Background work (the prober) starts
// with Start or Serve, not here, so a server that is only constructed
// owns no goroutines.
func New(reg *Registry, cfg Config) *Server {
	if cfg.DefaultMaxChunks <= 0 {
		cfg.DefaultMaxChunks = 16
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		limiter: NewLimiter(cfg.MaxInFlight),
		buckets: NewTenantBuckets(cfg.TenantRate, cfg.TenantBurst, cfg.Clock),
		metrics: NewMetrics(),
		prober:  NewProber(reg, cfg.ProbeInterval),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/indexes", s.handleIndexes)
	mux.HandleFunc("POST /v1/indexes/{index}/search", s.admitted(func() body { return new(SearchRequest) }))
	mux.HandleFunc("POST /v1/indexes/{index}/batch", s.admitted(func() body { return new(BatchRequest) }))
	mux.HandleFunc("POST /v1/indexes/{index}/multi", s.admitted(func() body { return new(MultiRequest) }))
	s.mux = mux
	return s
}

// Metrics exposes the server's counters for in-process embedding
// (benchmarks, tests); HTTP clients scrape GET /metrics instead.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the server's HTTP handler, for mounting under
// httptest or a caller-owned http.Server. Panic containment and
// admission are already wired in.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the background prober. Serve calls it; tests that
// mount Handler directly call it themselves (or drive Prober().Sweep()).
// Idempotent.
func (s *Server) Start() { s.prober.Start() }

// Prober returns the server's shard-health prober.
func (s *Server) Prober() *Prober { return s.prober }

// Serve starts the prober and serves HTTP on l until Shutdown. A clean
// shutdown returns nil, not http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	s.Start()
	hs := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.http = hs
	s.mu.Unlock()
	if err := hs.Serve(l); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown drains and retires the server: the readiness gate flips (new
// requests shed with 503), the prober goroutine is stopped and joined,
// in-flight requests run to completion (bounded by ctx), and every
// registered index is closed. After Shutdown returns, the server owns
// no goroutines.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.prober.Stop()
	s.mu.Lock()
	hs := s.http
	s.mu.Unlock()
	var err error
	if hs != nil {
		err = hs.Shutdown(ctx)
	}
	if cerr := s.reg.CloseAll(); err == nil {
		err = cerr
	}
	return err
}

// ---- wire types ----

// WireNeighbor is one neighbor on the wire.
type WireNeighbor struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// SearchRequest is the body of POST /v1/indexes/{index}/search.
type SearchRequest struct {
	// Query is the descriptor, exactly repro.Dims values.
	Query []float32 `json:"query"`
	// K is the neighbor count (0 = 30).
	K int `json:"k,omitempty"`
	// MaxChunks is the chunk-budget stop rule (0 = none).
	MaxChunks int `json:"max_chunks,omitempty"`
	// MaxTimeUs is the simulated time-budget stop rule in microseconds
	// (0 = none). At most one of MaxChunks/MaxTimeUs may be set.
	MaxTimeUs int64 `json:"max_time_us,omitempty"`
	// Overlap selects the overlapped simulated pipeline.
	Overlap bool `json:"overlap,omitempty"`
	// GlobalBudget selects the global budget discipline on sharded
	// indexes.
	GlobalBudget bool `json:"global_budget,omitempty"`
}

// SearchResponse is one search outcome on the wire. Degradation is
// always explicit: Degraded, ChunksSkipped, and ShardsDown ship on
// every response so a client can tell a complete answer from a partial
// one without a side channel.
type SearchResponse struct {
	Neighbors  []WireNeighbor `json:"neighbors"`
	ChunksRead int            `json:"chunks_read"`
	// ChunksGranted reports the shrunk per-query budget when best-effort
	// admission reduced it (0 = the request ran at its asked budget).
	ChunksGranted int   `json:"chunks_granted,omitempty"`
	SimulatedUs   int64 `json:"simulated_us"`
	WallUs        int64 `json:"wall_us"`
	Exact         bool  `json:"exact"`
	Degraded      bool  `json:"degraded"`
	ChunksSkipped int   `json:"chunks_skipped"`
	ShardsDown    int   `json:"shards_down"`
}

// BatchRequest is the body of POST /v1/indexes/{index}/batch.
type BatchRequest struct {
	// Queries are the descriptors, each exactly repro.Dims values.
	Queries [][]float32 `json:"queries"`
	// K, MaxChunks, MaxTimeUs, Overlap, GlobalBudget are per-query, as
	// in SearchRequest.
	K            int   `json:"k,omitempty"`
	MaxChunks    int   `json:"max_chunks,omitempty"`
	MaxTimeUs    int64 `json:"max_time_us,omitempty"`
	Overlap      bool  `json:"overlap,omitempty"`
	GlobalBudget bool  `json:"global_budget,omitempty"`
	// Parallelism caps the batch engine's concurrency (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// Stream switches the response to NDJSON (application/x-ndjson): one
	// BatchStreamItem line per query, written the moment that query
	// completes — fast queries arrive while slow ones still run — then
	// one trailer line carrying the BatchResponse totals (or the error,
	// when the batch failed after streaming began).
	Stream bool `json:"stream,omitempty"`
}

// BatchStreamItem is one line of a streamed batch response: a per-query
// completion (Query + Result), or the trailer (Done true) carrying the
// batch totals that a buffered BatchResponse would have carried — or the
// failure, since a mid-batch error can only be reported in-band once
// streaming has begun. Lines stream in completion order, not request
// order; Query maps each back to its slot.
type BatchStreamItem struct {
	// Query is the index of the completed query in the request, for
	// per-query lines; absent on the trailer.
	Query int `json:"query"`
	// Result is the completed query's outcome; nil on the trailer.
	Result *SearchResponse `json:"result,omitempty"`
	// Done marks the trailer, always the final line.
	Done bool `json:"done,omitempty"`
	// ChunksRead, Degraded, ChunksGranted are the trailer's batch totals,
	// as in BatchResponse.
	ChunksRead    int  `json:"chunks_read,omitempty"`
	Degraded      bool `json:"degraded,omitempty"`
	ChunksGranted int  `json:"chunks_granted,omitempty"`
	// Error reports a batch failure on the trailer: queries already
	// streamed remain valid, the rest never arrive.
	Error string `json:"error,omitempty"`
}

// BatchResponse is the body of a batch's 200: per-query outcomes in
// request order plus the batch-level totals the admission layer billed.
type BatchResponse struct {
	Results []SearchResponse `json:"results"`
	// ChunksRead is the total across queries; Degraded reports any
	// per-query degradation.
	ChunksRead int  `json:"chunks_read"`
	Degraded   bool `json:"degraded"`
	// ChunksGranted reports the shrunk per-query budget under
	// best-effort admission (0 = full asked budget).
	ChunksGranted int `json:"chunks_granted,omitempty"`
}

// MultiRequest is the body of POST /v1/indexes/{index}/multi: one image
// as a bag of descriptors, answered with ranked source images.
type MultiRequest struct {
	// Descriptors is the query image's bag, each exactly repro.Dims
	// values.
	Descriptors [][]float32 `json:"descriptors"`
	// K is the per-descriptor neighbor count (0 = repro.DefaultMultiK).
	K int `json:"k,omitempty"`
	// MaxChunks is the per-descriptor chunk budget (0 =
	// repro.DefaultMultiMaxChunks).
	MaxChunks int `json:"max_chunks,omitempty"`
	// RankWeighted scores votes 1/(1+rank).
	RankWeighted bool `json:"rank_weighted,omitempty"`
	// Overlap selects the overlapped simulated pipeline.
	Overlap bool `json:"overlap,omitempty"`
	// GlobalBudget selects the global budget discipline on sharded
	// indexes.
	GlobalBudget bool `json:"global_budget,omitempty"`
}

// WireImage is one ranked image on the wire.
type WireImage struct {
	Image   uint32  `json:"image"`
	Score   float64 `json:"score"`
	Matches int     `json:"matches"`
}

// MultiResponse is the body of a multi-search 200.
type MultiResponse struct {
	Images        []WireImage `json:"images"`
	Descriptors   int         `json:"descriptors"`
	ChunksRead    int         `json:"chunks_read"`
	ChunksGranted int         `json:"chunks_granted,omitempty"`
	SimulatedUs   int64       `json:"simulated_us"`
	Degraded      bool        `json:"degraded"`
	ChunksSkipped int         `json:"chunks_skipped"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ---- middleware ----

// result is what a handler reports back to the admission wrapper for
// metrics: the outcome class plus the 200-path details.
type result struct {
	outcome    Outcome
	chunksRead int
	degraded   bool
}

// admitted wraps the search pipeline, for request bodies made by
// newBody, in the server's protective shell, outermost first: panic
// containment (a panicking handler answers 500 and the server keeps
// serving), the draining gate, and the in-flight limiter. Inside the
// shell the pipeline runs, and its reported result is recorded with the
// request's wall latency.
func (s *Server) admitted(newBody func() body) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.metrics.Record(OutcomeShedInFlight, 0, 0, false)
			writeError(w, http.StatusServiceUnavailable, "server is draining", 1)
			return
		}
		if !s.limiter.TryAcquire() {
			s.metrics.Record(OutcomeShedInFlight, 0, 0, false)
			writeError(w, http.StatusServiceUnavailable, "server at capacity", 1)
			return
		}
		defer s.limiter.Release()
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				// The handler may have written nothing yet; answer 500 on a
				// best-effort basis (WriteHeader after a write is a no-op).
				writeError(w, http.StatusInternalServerError,
					fmt.Sprintf("internal error: %v", p), 0)
				s.metrics.Record(OutcomeServerError, time.Since(start), 0, false)
			}
		}()
		res := s.handle(w, r, newBody())
		s.metrics.Record(res.outcome, time.Since(start), res.chunksRead, res.degraded)
	}
}

// writeError answers an ErrorResponse; retryAfterSec > 0 adds the
// Retry-After header 429/503 clients key their backoff on.
func writeError(w http.ResponseWriter, status int, msg string, retryAfterSec int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}

// writeJSON answers a 200 with v as JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds rounds d up to whole seconds, minimum 1: the
// coarse, honest form Retry-After wants.
func retryAfterSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// ---- admission plumbing of the search pipeline ----

// request deadlines: header over default, then a real context.

// requestDeadline resolves the request's deadline and returns a context
// honoring it. A malformed header is a client error.
func (s *Server) requestDeadline(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultDeadline
	if h := r.Header.Get(HeaderDeadlineMs); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("invalid %s header %q: want a positive integer", HeaderDeadlineMs, h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// tenantOf resolves the paying tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(HeaderTenant); t != "" {
		return t
	}
	return DefaultTenant
}

// grant is an admission decision from admitChunks.
type grant struct {
	tenant string
	// charged is what the bucket was debited up front; settle squares it
	// with actual spend.
	charged int
	// perQuery is the effective per-query chunk budget, possibly shrunk
	// under best-effort admission; granted is then that shrunk budget,
	// which responses report as chunks_granted (0 = not shrunk).
	perQuery, granted int
}

// settle squares the up-front charge with the actual chunks read:
// refunds the unspent remainder or charges the overrun as tenant debt.
func (g *grant) settle(buckets *TenantBuckets, actual int) {
	switch diff := g.charged - actual; {
	case diff > 0:
		buckets.Refund(g.tenant, diff)
	case diff < 0:
		buckets.Charge(g.tenant, -diff)
	}
}

// admitChunks runs tenant admission for a request of n queries against
// b, each with per-query budget maxChunks (0 = none declared), where
// timed reports an explicit simulated time budget. On refusal it writes
// the 429 and returns ok=false.
func (s *Server) admitChunks(w http.ResponseWriter, r *http.Request, b Backend, n, maxChunks int, timed bool) (grant, bool) {
	g := grant{tenant: tenantOf(r), perQuery: maxChunks}
	per := maxChunks
	if per <= 0 {
		per = s.cfg.DefaultMaxChunks
	}
	// A walk never reads more chunks than the index holds; capping first
	// also keeps a huge max_chunks from overflowing the estimate.
	estimate := min(per, b.Chunks()) * n
	if ok, retry := s.buckets.Take(g.tenant, estimate); !ok {
		// least is the smallest charge a retry could be admitted at.
		least := estimate
		// Best-effort shrink applies only to chunk-budget requests: their
		// cost is denominated in chunks up front. Timed and
		// run-to-completion requests shed.
		if s.cfg.BestEffort && maxChunks > 0 && !timed {
			if granted := s.buckets.TakeUpTo(g.tenant, estimate); granted >= n {
				g.charged = granted
				g.perQuery = granted / n
				g.granted = g.perQuery
				s.metrics.RecordBestEffort()
				return g, true
			} else if granted > 0 {
				// Not even one chunk per query: refund and shed.
				s.buckets.Refund(g.tenant, granted)
			}
			least = n
			retry = s.buckets.RetryAfter(g.tenant, n)
		}
		if float64(least) > s.buckets.burst {
			// No wait fills a bucket past its burst, so promise no retry.
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("tenant %q over budget: needs at least %d chunks, more than its burst of %s; retrying cannot succeed",
					g.tenant, least, strconv.FormatFloat(s.buckets.burst, 'f', -1, 64)), 0)
			return g, false
		}
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over budget: %d chunks requested", g.tenant, estimate),
			retryAfterSeconds(retry))
		return g, false
	}
	g.charged = estimate
	return g, true
}

// searchFailure maps a facade search error onto the wire: an expired or
// cancelled deadline is 503 with Retry-After (the request was admitted
// but its time ran out — the honest signal for the client to back off
// and retry with a looser deadline), anything else is 500.
func searchFailure(w http.ResponseWriter, err error) result {
	if outcome := failureOutcome(err); outcome == OutcomeDeadlineMiss {
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("deadline exceeded: %v", err), 1)
		return result{outcome: outcome}
	}
	writeError(w, http.StatusInternalServerError, err.Error(), 0)
	return result{outcome: OutcomeServerError}
}

// failureOutcome classifies a search error for metrics: an expired or
// cancelled deadline is a deadline miss, anything else a server error.
func failureOutcome(err error) Outcome {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return OutcomeDeadlineMiss
	}
	return OutcomeServerError
}

// ---- the search pipeline ----

// body is a search route's request type. Each reads itself as the batch
// it asks for and names its vectors for diagnostics: /search is a batch
// of one, /batch itself, and /multi a batch whose outcomes then vote.
type body interface {
	batch() (field string, req BatchRequest)
}

func (req *SearchRequest) batch() (string, BatchRequest) {
	return "query", BatchRequest{Queries: [][]float32{req.Query}, K: req.K, MaxChunks: req.MaxChunks,
		MaxTimeUs: req.MaxTimeUs, Overlap: req.Overlap, GlobalBudget: req.GlobalBudget}
}

func (req *BatchRequest) batch() (string, BatchRequest) { return "queries", *req }

// A bag's budget is always chunk-denominated: MaxChunks 0 is the facade's
// per-descriptor default, so admission estimates and grants that.
func (req *MultiRequest) batch() (string, BatchRequest) {
	return "descriptors", BatchRequest{Queries: req.Descriptors, K: req.K,
		MaxChunks: cmp.Or(req.MaxChunks, repro.DefaultMultiMaxChunks), Overlap: req.Overlap, GlobalBudget: req.GlobalBudget}
}

// parse decodes the JSON body into req with a size cap and strict fields
// — typos in option names are diagnosed, not ignored, and a malformed
// body names req's type — then validates the batch it asks for: the stop
// rules first, then every vector's dimensionality.
func parse(w http.ResponseWriter, r *http.Request, req body) (BatchRequest, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return BatchRequest{}, fmt.Errorf("decoding request body: %w", err)
	}
	field, b := req.batch()
	if err := checkStopRules(b.K, b.MaxChunks, b.MaxTimeUs); err != nil {
		return b, err
	}
	if len(b.Queries) == 0 {
		return b, fmt.Errorf("%s must be non-empty", field)
	}
	for i, v := range b.Queries {
		if len(v) != repro.Dims {
			return b, fmt.Errorf("%s[%d] has %d dims, want %d", field, i, len(v), repro.Dims)
		}
	}
	return b, nil
}

// checkStopRules rejects out-of-range or contradictory wire options
// before any tokens are charged — the same rules the facade enforces,
// applied early so a bad request never costs admission work.
func checkStopRules(k, maxChunks int, maxTimeUs int64) error {
	if k < 0 {
		return fmt.Errorf("k %d is negative", k)
	}
	if maxChunks < 0 {
		return fmt.Errorf("max_chunks %d is negative", maxChunks)
	}
	if maxTimeUs < 0 {
		return fmt.Errorf("max_time_us %d is negative", maxTimeUs)
	}
	if maxChunks > 0 && maxTimeUs > 0 {
		return fmt.Errorf("max_chunks %d and max_time_us %d are conflicting stop rules; set at most one", maxChunks, maxTimeUs)
	}
	return nil
}

// handle is the one pipeline behind every search route. Its prologue
// looks the index up, parses the body, resolves the deadline and admits
// the request's chunk estimate; then /multi votes and the others run as
// one batch. The grant is settled exactly once, on the way out, with the
// chunks the run reported — none when it failed or panicked, so either
// refunds the up-front charge.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, req body) (res result) {
	name := r.PathValue("index")
	b, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown index %q", name), 0)
		return result{outcome: OutcomeClientError}
	}
	breq, err := parse(w, r, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return result{outcome: OutcomeClientError}
	}
	ctx, cancel, err := s.requestDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return result{outcome: OutcomeClientError}
	}
	defer cancel()
	g, ok := s.admitChunks(w, r, b, len(breq.Queries), breq.MaxChunks, breq.MaxTimeUs > 0)
	if !ok {
		return result{outcome: OutcomeShedTenant}
	}
	defer func() { g.settle(s.buckets, res.chunksRead) }()
	queries := make([]repro.Vector, len(breq.Queries))
	for i, q := range breq.Queries {
		queries[i] = q
	}
	opts := repro.BatchOptions{
		SearchOptions: repro.SearchOptions{
			K:            breq.K,
			MaxChunks:    g.perQuery,
			MaxTime:      time.Duration(breq.MaxTimeUs) * time.Microsecond,
			Overlap:      breq.Overlap,
			GlobalBudget: breq.GlobalBudget,
			Ctx:          ctx,
		},
		Parallelism: breq.Parallelism,
	}
	applyDeadlineBudget(&opts.SearchOptions, ctx)
	if m, ok := req.(*MultiRequest); ok {
		return vote(w, b, queries, opts.SearchOptions, m.RankWeighted, g.granted)
	}
	_, point := req.(*SearchRequest)
	return run(w, b, queries, opts, g.granted, point, breq.Stream)
}

// run answers /search and /batch: the batch runs through the backend's
// one entry point and is written as one SearchResponse (point), a
// BatchResponse, or — with stream — NDJSON (see stream). Every response
// carries the backend's ShardsDown, sampled once per request: before the
// run when streaming, after it otherwise.
func run(w http.ResponseWriter, b Backend, queries []repro.Vector, opts repro.BatchOptions, granted int, point, stream bool) result {
	results := make([]repro.Result, len(queries))
	var done func(int)
	var trailer func(error) result
	if stream {
		done, trailer = streamTo(w, results, granted, b.ShardsDown())
	}
	err := b.SearchBatchStream(queries, opts, results, done)
	switch {
	case stream:
		return trailer(err)
	case err != nil:
		return searchFailure(w, err)
	}
	down := b.ShardsDown()
	if point {
		resp := searchResponse(&results[0], down)
		resp.ChunksGranted = granted
		writeJSON(w, resp)
		return result{outcome: OutcomeOK, chunksRead: resp.ChunksRead, degraded: resp.Degraded}
	}
	resp := BatchResponse{Results: make([]SearchResponse, len(results)), ChunksGranted: granted}
	for i := range results {
		resp.Results[i] = searchResponse(&results[i], down)
		resp.ChunksRead += results[i].ChunksRead
		resp.Degraded = resp.Degraded || results[i].Degraded
	}
	writeJSON(w, resp)
	return result{outcome: OutcomeOK, chunksRead: resp.ChunksRead, degraded: resp.Degraded}
}

// streamTo commits a streamed batch's 200 and returns the run's
// completion callback, which writes one BatchStreamItem line per query
// in completion order and flushes it, and the trailer, which writes the
// batch totals once the run returns. The 200 commits before the batch
// runs, so a mid-batch failure is reported in-band on the trailer —
// queries already streamed remain valid, exactly the facade's
// SearchBatchStream contract. The trailer is left unflushed: it reaches
// the client when the handler returns, after the grant is settled. Every
// line reports down as its ShardsDown.
func streamTo(w http.ResponseWriter, results []repro.Result, granted, down int) (done func(int), trailer func(error) result) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var mu sync.Mutex // serializes completion callbacks onto the wire
	tally := result{outcome: OutcomeOK}
	done = func(qi int) {
		item := searchResponse(&results[qi], down)
		mu.Lock()
		defer mu.Unlock()
		tally.chunksRead += results[qi].ChunksRead
		tally.degraded = tally.degraded || results[qi].Degraded
		enc.Encode(BatchStreamItem{Query: qi, Result: &item})
		if flusher != nil {
			flusher.Flush()
		}
	}
	trailer = func(err error) result {
		item := BatchStreamItem{Done: true, ChunksRead: tally.chunksRead, Degraded: tally.degraded, ChunksGranted: granted}
		if err != nil {
			item.Error = err.Error()
			tally.outcome = failureOutcome(err)
		}
		enc.Encode(item)
		return tally
	}
	return done, trailer
}

// vote answers /multi: the bag runs as one batch on the backend and its
// per-descriptor outcomes vote for their source images.
func vote(w http.ResponseWriter, b Backend, descriptors []repro.Vector, opts repro.SearchOptions, rankWeighted bool, granted int) result {
	res, err := b.MultiSearch(descriptors, repro.MultiSearchOptions{
		K:            opts.K,
		MaxChunks:    opts.MaxChunks,
		RankWeighted: rankWeighted,
		Overlap:      opts.Overlap,
		GlobalBudget: opts.GlobalBudget,
		Ctx:          opts.Ctx,
	})
	if err != nil {
		return searchFailure(w, err)
	}
	resp := MultiResponse{
		Images:        make([]WireImage, len(res.Images)),
		Descriptors:   res.Descriptors,
		ChunksRead:    res.ChunksRead,
		ChunksGranted: granted,
		SimulatedUs:   res.Simulated.Microseconds(),
		Degraded:      res.Degraded,
		ChunksSkipped: res.ChunksSkipped,
	}
	for i, im := range res.Images {
		resp.Images[i] = WireImage{Image: im.Image, Score: im.Score, Matches: im.Matches}
	}
	writeJSON(w, resp)
	return result{outcome: OutcomeOK, chunksRead: res.ChunksRead, degraded: res.Degraded}
}

// applyDeadlineBudget mirrors a real deadline into the simulated time
// budget for requests that set no explicit stop rule: the modeled 2005
// machine is given the same horizon the wall clock enforces, so an
// undeclared request degrades to a time-budget search instead of a
// run-to-completion one that the deadline then kills.
func applyDeadlineBudget(opts *repro.SearchOptions, ctx context.Context) {
	if opts.MaxChunks > 0 || opts.MaxTime > 0 {
		return
	}
	if dl, ok := ctx.Deadline(); ok {
		if remain := time.Until(dl); remain > 0 {
			opts.MaxTime = remain
		}
	}
}

// searchResponse maps a facade result and the backend's down-shard count
// onto the wire.
func searchResponse(res *repro.Result, shardsDown int) SearchResponse {
	out := SearchResponse{
		Neighbors:     make([]WireNeighbor, len(res.Neighbors)),
		ChunksRead:    res.ChunksRead,
		SimulatedUs:   res.Simulated.Microseconds(),
		WallUs:        res.Wall.Microseconds(),
		Exact:         res.Exact,
		Degraded:      res.Degraded,
		ChunksSkipped: res.ChunksSkipped,
		ShardsDown:    shardsDown,
	}
	for i, nb := range res.Neighbors {
		out.Neighbors[i] = WireNeighbor{ID: uint32(nb.ID), Dist: nb.Dist}
	}
	return out
}

// ---- lifecycle endpoints ----

// handleHealthz answers liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz answers readiness: 200 while accepting work, 503 once
// draining — the signal a load balancer keys on to stop routing here
// before the listener actually closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", 1)
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

// handleMetrics serves the metrics snapshot as one JSON document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.metrics.Snapshot(s.limiter.InFlight(), s.reg))
}

// handleIndexes lists the registered indexes with their shard health.
func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	out := []IndexSnapshot{}
	for _, name := range s.reg.Names() {
		b, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		out = append(out, indexState(name, b))
	}
	writeJSON(w, out)
}
