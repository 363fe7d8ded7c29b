package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/chunkfile"
	"repro/internal/server"
)

// config is one invocation's settings.
type config struct {
	layout  layout
	seed    int64
	seconds float64 // timed window per workload
	size    int     // descriptors in the collection
	trace   bool
}

// attribution is the "where a served query's time goes" table of a
// traced run, in µs, for the workload's primary request class. The three
// p50s are the same requests against the real process, against the same
// server code in-process, and in-process under spans. The self-time rows
// are the mean of the traced requests between the 45th and 55th
// percentile and sum to BandTotalUs; the rows below them restate the
// in-library stage probes for one /search.
type attribution struct {
	Class           string  `json:"class"`
	TracedRequests  int     `json:"traced_requests"`
	ReprodP50Us     float64 `json:"reprod_p50_us"`
	InProcessP50Us  float64 `json:"in_process_p50_us"`
	TracedP50Us     float64 `json:"traced_p50_us"`
	BandTotalUs     float64 `json:"band_total_us"`
	ClientSelfUs    float64 `json:"client_self_us"`
	FrontDoorSelfUs float64 `json:"front_door_self_us"`
	BackendUs       float64 `json:"backend_us"`
	SumGapPct       float64 `json:"sum_gap_pct"` // |client+front door+backend − traced p50| ÷ traced p50
	SearchIntoUs    float64 `json:"search_into_us"`
	RankUs          float64 `json:"rank_us"`
	ChunksPerQuery  float64 `json:"chunks_per_query"`
	StoreUsPerChunk float64 `json:"store_us_per_chunk"` // hit and miss cost mixed by the timed run's hit rate
	ScanUsPerChunk  float64 `json:"scan_us_per_chunk"`
	UnattributedUs  float64 `json:"unattributed_us"`
}

// report is everything one workload run produced.
type report struct {
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
	Samples     map[string]int         `json:"samples"`
	Slices      map[string][]float64   `json:"slices"`
	Attribution *attribution           `json:"attribution,omitempty"`
	Failures    []string               `json:"failures,omitempty"`
}

// latencies returns the ms of the samples that pass keep, sorted.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.failed && keep(s) {
			out = append(out, s.ms)
		}
	}
	sort.Float64s(out)
	return out
}

// warmUp sends the workload's first requests closed-loop so caches fill
// and lazy set-up finishes before the timed window.
func warmUp(c *client, w *workload) error {
	res := c.runClosed(w.issueOrder(), w.conns, w.warm, 0)
	if len(res.tally.failures) > 0 {
		return fmt.Errorf("warm-up: %s", res.tally.failures[0])
	}
	return nil
}

// timedRun opens the timed window on the workload: closed loop for
// cfg.seconds, or the whole open-loop schedule.
func timedRun(c *client, w *workload, seconds float64) runResult {
	if w.schedule != nil {
		return c.runOpen(w.conns, w.schedule)
	}
	return c.runClosed(w.issueOrder(), w.conns, 0, time.Duration(seconds*float64(time.Second)))
}

// served is what the timed window against the real reprod process
// yielded, before any of it is turned into metrics.
type served struct {
	client       *client
	openS, warmS float64
	run          runResult
	cpuS         float64 // reprod's CPU seconds over the window
	rssMB        float64
	before       server.Snapshot
	after        server.Snapshot
	ladder       map[string]float64 // traced invocations only
	drainMs      float64
	stopErr      error
}

// serve starts reprod on the saved index, warms it, opens the timed
// window with tracing off, climbs the rate ladder if asked and drains
// the server. The process is gone when serve returns, whatever happened.
func serve(cfg config, w *workload) (*served, error) {
	sv := &served{}
	t0 := time.Now()
	proc, err := startReprod(cfg.layout, w.cacheBytes)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			proc.kill()
		}
	}()
	sv.openS = time.Since(t0).Seconds()

	sv.client = newClient(proc.base, w, captureSet(w), nil)
	defer sv.client.close()
	t0 = time.Now()
	if err := warmUp(sv.client, w); err != nil {
		return nil, err
	}
	sv.warmS = time.Since(t0).Seconds()

	pid := proc.cmd.Process.Pid
	if sv.before, err = snapshot(proc.base); err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	sv.run = timedRun(sv.client, w, cfg.seconds)
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	sv.cpuS = cpu1 - cpu0
	if sv.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	if sv.after, err = snapshot(proc.base); err != nil {
		return nil, err
	}
	if cfg.trace {
		if sv.ladder, err = runLadder(cfg, w, proc.base); err != nil {
			return nil, err
		}
	}
	sv.drainMs, sv.stopErr = proc.stop()
	stopped = true
	return sv, nil
}

// runWorkload sets the system up from nothing, measures one workload
// against the real reprod process with tracing off, checks the answers,
// and with cfg.trace repeats the workload in-process under spans and
// runs the stage probes.
func runWorkload(cfg config, sp spec) (*report, error) {
	coll, bt, err := buildIndex(cfg.layout, cfg.size)
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(sp, coll, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	sv, err := serve(cfg, w)
	if err != nil {
		return nil, err
	}
	run := sv.run

	rep := &report{Attempted: len(run.samples), Samples: map[string]int{}, Failures: run.tally.failures}
	for _, s := range run.samples {
		if s.failed {
			rep.Failed++
		}
	}
	if sv.stopErr != nil {
		rep.Failures = append(rep.Failures, sv.stopErr.Error())
	}
	if run.tally.queries == 0 {
		return nil, fmt.Errorf("no request was answered: %v", rep.Failures)
	}

	// The library's own answers on the same saved index, opened only now
	// so nothing of it runs during the timed window.
	lib, err := repro.OpenSharded(cfg.layout.indexDir())
	if err != nil {
		return nil, err
	}
	defer lib.Close()
	checked, mismatches := verify(w, sv.client, lib)
	rep.Failed += len(mismatches)
	rep.Failures = append(rep.Failures, mismatches...)
	rep.Samples["verified_requests"] = checked
	rep.Correct = rep.Failed == 0 && sv.stopErr == nil && checked > 0

	values := timedValues(w, sv, bt, rep)
	for k, v := range sv.ladder {
		values[k] = v
	}
	if cfg.trace {
		// A traced invocation reports per-layer metrics only; the scan
		// oracle behind recall costs seconds, so it is skipped.
		untracedP50 := percentile(classLatencies(w, run.samples, sp.primary), 0.5)
		if rep.Attribution, err = runTraced(cfg, w, untracedP50, values); err != nil {
			return nil, err
		}
		rep.PerLayer, err = collect(perLayer(), values)
		return rep, err
	}
	values["recall_at_30"], rep.Samples["recall_at_30"] = recall(w, sv.client, coll, runtime.GOMAXPROCS(0))
	if rep.EndToEnd, err = collect(endToEnd, values); err != nil {
		return nil, err
	}
	rep.PerLayer, err = collect(timedLayer, values)
	return rep, err
}

// classLatencies returns the sorted latencies of the answered requests
// of the given classes.
func classLatencies(w *workload, samples []sample, classes ...class) []float64 {
	return latencies(samples, func(s sample) bool {
		return slices.Contains(classes, w.reqs[s.req].class)
	})
}

// timedValues turns the timed window into the end-to-end metrics (all
// but recall) and the per-layer counts, and notes the sample counts and
// per-slice series in rep.
func timedValues(w *workload, sv *served, bt buildTimes, rep *report) map[string]float64 {
	run := sv.run
	queries := float64(run.tally.queries)
	all := latencies(run.samples, func(sample) bool { return true })
	var timed []timedSample
	late := make([]float64, 0, len(run.samples))
	for _, s := range run.samples {
		late = append(late, s.lateMs)
		if !s.failed {
			timed = append(timed, timedSample{at: s.at, ms: s.ms})
		}
	}
	sort.Float64s(late)
	// An open loop's window is its schedule; a closed loop's ends with
	// its last answer.
	window := run.elapsedS
	if n := len(w.schedule); n > 0 {
		window = max(window, w.schedule[n-1].due.Seconds())
	}
	p99, nSlices := slicedP99(timed, window)
	rep.Slices = sliceSeries(w, run.samples, window)
	rep.Samples["latency_p50_ms"] = len(all)
	rep.Samples["latency_p99_ms_slices"] = nSlices
	rep.Samples["latency_p99_ms_per_slice"] = len(all) / max(nSlices, 1)

	sort.Float64s(run.tally.simUs)
	search := classLatencies(w, run.samples, classSearch)
	values := map[string]float64{
		"setup_s":                 bt.generateS + bt.indexS + bt.saveS + sv.openS + sv.warmS,
		"throughput_qps":          queries / run.elapsedS,
		"latency_p50_ms":          percentile(all, 0.5),
		"latency_p99_ms":          p99,
		"server_cpu_us_per_query": sv.cpuS * 1e6 / queries,
		"server_peak_rss_mb":      sv.rssMB,

		"server.shed_inflight":      float64(sv.after.ShedInFlight - sv.before.ShedInFlight),
		"server.shed_tenant":        float64(sv.after.ShedTenant - sv.before.ShedTenant),
		"server.deadline_miss":      float64(sv.after.DeadlineMiss - sv.before.DeadlineMiss),
		"server.errors_5xx":         float64(sv.after.ServerErrors - sv.before.ServerErrors),
		"server.drain_ms":           sv.drainMs,
		"repro.engine_wall_us_mean": float64(run.tally.wallUs) / float64(max(run.tally.wallN, 1)),
		"search.chunks_per_query":   float64(run.tally.chunks) / queries,
		"simdisk.sim_ms_per_query":  mean(run.tally.simUs) / 1e3,
		"simdisk.sim_ms_p99":        percentile(run.tally.simUs, 0.99) / 1e3,
		"loadgen.late_p99_ms":       percentile(late, 0.99),
		"loadgen.achieved_rate_rps": float64(rep.Attempted) / window,
		"loadgen.failed_share":      float64(rep.Failed) / float64(rep.Attempted),
		"mixed.search_p50_ms":       percentile(search, 0.5),
		"mixed.search_p99_ms":       percentile(search, 0.99),
		"mixed.multi_p50_ms":        percentile(classLatencies(w, run.samples, classMulti), 0.5),
		"mixed.batch_p50_ms":        percentile(classLatencies(w, run.samples, classBatch, classStream), 0.5),
		"build.generate_s":          bt.generateS,
		"build.index_s":             bt.indexS,
		"build.save_s":              bt.saveS,
		"build.index_mb":            bt.indexMB,
		"reprod.open_s":             sv.openS,
		"reprod.warm_s":             sv.warmS,
	}
	layerCounts(values, sv.before, sv.after, queries, float64(run.tally.chunks))
	return values
}

// layerCounts derives the cache and shard figures from the /metrics
// documents taken either side of the timed window.
func layerCounts(values map[string]float64, before, after server.Snapshot, queries, chargedChunks float64) {
	var hits, misses, evictions, residentMB, reads, maxReads float64
	nShards := 0
	for i, ix := range after.Indexes {
		if i >= len(before.Indexes) {
			break
		}
		was := before.Indexes[i]
		if ix.Cache != nil && was.Cache != nil {
			hits += float64(ix.Cache.Hits - was.Cache.Hits)
			misses += float64(ix.Cache.Misses - was.Cache.Misses)
			evictions += float64(ix.Cache.Evictions - was.Cache.Evictions)
			residentMB += float64(ix.Cache.Bytes) / 1e6
		}
		for s, sh := range ix.Shards {
			if s >= len(was.Shards) {
				break
			}
			d := float64(sh.Reads - was.Shards[s].Reads)
			reads += d
			maxReads = max(maxReads, d)
			nShards++
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	values["shard.reads_per_query"] = ratio(reads, queries)
	values["shard.read_imbalance"] = ratio(maxReads*float64(nShards), reads)
	values["chunkcache.hit_rate"] = ratio(hits, hits+misses)
	values["chunkcache.evictions_per_query"] = ratio(evictions, queries)
	values["chunkcache.resident_mb"] = residentMB
	values["batchexec.store_reads_per_charged_chunk"] = ratio(hits+misses, chargedChunks)
}

// ladderRates are the fixed arrival rates of the rate ladder, and
// ladderLimitMs the p99 a rate must stay under to count as met.
var ladderRates = []int{500, 1000, 1500}

const ladderLimitMs = 5.0

// runLadder sends open-loop /search traffic over the workload's own
// descriptors at each ladder rate, one step of a fifth of the window
// each, and records the p99 from the due time per step and the highest
// rate whose p99 met the limit with the generator keeping up.
func runLadder(cfg config, w *workload, base string) (map[string]float64, error) {
	values := map[string]float64{}
	lw := &workload{spec: spec{name: "ladder", conns: 8}}
	for _, q := range probeQueries(w, 2000) {
		lw.reqs = append(lw.reqs, searchRequest(q))
	}
	c := newClient(base, lw, nil, nil)
	defer c.close()
	step := cfg.seconds / 5
	best := 0.0
	for _, rate := range ladderRates {
		res := c.runOpen(lw.conns, searchSchedule(scheduleSeed+int64(rate), float64(rate), step, len(lw.reqs)))
		if len(res.tally.failures) > 0 {
			return nil, fmt.Errorf("ladder at %d/s: %s", rate, res.tally.failures[0])
		}
		p99 := percentile(latencies(res.samples, func(sample) bool { return true }), 0.99)
		values[fmt.Sprintf("ladder.search_p99_ms_at_%d", rate)] = p99
		// A generator that needed over 5% longer than the step had a
		// growing backlog: the rate was not sustained.
		if p99 < ladderLimitMs && res.elapsedS < step*1.05 {
			best = float64(rate)
		}
	}
	values["ladder.max_rate_under_5ms"] = best
	return values, nil
}

// inProcess is the same server code as reprod's, served from the
// benchmark's own process behind the tracer's handler and backend.
type inProcess struct {
	base string
	sx   *repro.ShardedIndex
	// stopHTTP closes the listener and waits for every handler, and so
	// for the last server.handle span; it may be called more than once.
	stopHTTP func()
	// close retires the server, which closes sx.
	close func()
}

func startInProcess(cfg config, w *workload, tr *tracer) (*inProcess, error) {
	sx, err := repro.OpenShardedWith(cfg.layout.indexDir(), repro.OpenConfig{CacheBytes: w.cacheBytes})
	if err != nil {
		return nil, err
	}
	reg := server.NewRegistry()
	if err := reg.Add("main", tracedBackend{ShardedIndex: sx, t: tr}); err != nil {
		sx.Close()
		return nil, err
	}
	srv := server.New(reg, server.Config{
		DefaultDeadline: 2 * time.Second,
		MaxInFlight:     64,
		TenantRate:      1_000_000,
		TenantBurst:     1_000_000,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sx.Close()
		return nil, err
	}
	hs := &http.Server{Handler: tr.handler(srv.Handler())}
	srv.Start()
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	ip := &inProcess{base: "http://" + ln.Addr().String(), sx: sx}
	ip.stopHTTP = sync.OnceFunc(func() {
		hs.Shutdown(ctx)
		<-served
	})
	ip.close = func() {
		ip.stopHTTP()
		srv.Shutdown(ctx)
		cancel()
	}
	return ip, nil
}

// runTraced repeats the workload against the same server code served
// in-process, with a span at each layer boundary the benchmark can reach
// from outside: the client's request, the HTTP handler, and the facade
// call. It writes the spans, runs the stage probes on the same index and
// fills the traced per-layer metrics into values.
func runTraced(cfg config, w *workload, untracedP50Ms float64, values map[string]float64) (*attribution, error) {
	tr := newTracer()
	ip, err := startInProcess(cfg, w, tr)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	c := newClient(ip.base, w, nil, tr)
	defer c.close()
	if err := warmUp(c, w); err != nil {
		return nil, fmt.Errorf("in-process %w", err)
	}
	// The same third of the workload twice on the same server: first with
	// the tracer off, then on. The gap between the two is what recording
	// spans costs.
	third := *w
	windowS := cfg.seconds / 3
	for i, a := range third.schedule {
		if a.due.Seconds() >= windowS {
			third.schedule = third.schedule[:i]
			break
		}
	}
	var p50Us [2]float64
	for i, on := range []bool{false, true} {
		tr.on.Store(on)
		run := timedRun(c, &third, windowS)
		if len(run.tally.failures) > 0 {
			return nil, fmt.Errorf("in-process run, tracer on=%v: %s", on, run.tally.failures[0])
		}
		p50Us[i] = 1e3 * percentile(classLatencies(w, run.samples, w.primary), 0.5)
	}
	values["trace.overhead_pct"] = (p50Us[1] - p50Us[0]) / p50Us[0] * 100
	ip.stopHTTP()
	if err := tr.write(filepath.Join(cfg.layout.out, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	var splits []requestSplit
	for _, r := range splitRequests(tr.spans) {
		if r.class == w.primary {
			splits = append(splits, r)
		}
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("traced run recorded no complete %s request", classNames[w.primary])
	}
	column := func(f func(requestSplit) float64) []float64 {
		out := make([]float64, len(splits))
		for i, r := range splits {
			out[i] = f(r)
		}
		sort.Float64s(out)
		return out
	}
	for name, col := range map[string][]float64{
		"client.self_us":   column(func(r requestSplit) float64 { return r.client }),
		"server.self_us":   column(func(r requestSplit) float64 { return r.frontDoor }),
		"repro.backend_us": column(func(r requestSplit) float64 { return r.backend }),
	} {
		values[name+"_p50"] = percentile(col, 0.5)
		values[name+"_p99"] = percentile(col, 0.99)
	}

	stores, _, err := chunkfile.OpenSharded(cfg.layout.indexDir())
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	probes, err := runProbes(probeInputs{
		w: w, sx: ip.sx, stores: stores,
		hitRate: values["chunkcache.hit_rate"],
		budget:  time.Duration(cfg.seconds / 80 * float64(time.Second)),
	})
	if err != nil {
		return nil, err
	}
	for k, v := range probes.metrics {
		values[k] = v
	}

	band := medianBand(splits)
	at := &attribution{
		Class:           classNames[w.primary],
		TracedRequests:  len(splits),
		ReprodP50Us:     untracedP50Ms * 1e3,
		InProcessP50Us:  p50Us[0],
		TracedP50Us:     percentile(column(func(r requestSplit) float64 { return r.total }), 0.5),
		BandTotalUs:     band.total,
		ClientSelfUs:    band.client,
		FrontDoorSelfUs: band.frontDoor,
		BackendUs:       band.backend,
		SearchIntoUs:    probes.metrics["repro.search_into_us"],
		RankUs:          probes.metrics["search.rank_us"],
		ChunksPerQuery:  probes.chunksPerQuery,
		StoreUsPerChunk: probes.storeUsPerChunk,
		ScanUsPerChunk:  probes.metrics["search.scan_us_per_chunk"],
		UnattributedUs:  probes.metrics["repro.unattributed_us"],
	}
	sum := band.client + band.frontDoor + band.backend
	at.SumGapPct = math.Abs(sum-at.TracedP50Us) / at.TracedP50Us * 100
	if at.SumGapPct > 5 {
		fmt.Fprintf(os.Stderr, "bench: %s: attribution rows sum to %.1f µs, %.1f%% off the traced p50 %.1f µs\n",
			w.name, sum, at.SumGapPct, at.TracedP50Us)
	}
	return at, nil
}

// sliceSeries cuts the window into ten equal slices by completion time
// and returns each slice's throughput, p50 and p99.
func sliceSeries(w *workload, samples []sample, windowS float64) map[string][]float64 {
	const n = 10
	queries := make([]float64, n)
	lat := make([][]float64, n)
	for _, s := range samples {
		if s.failed {
			continue
		}
		i := sliceOf(s.at+s.ms/1e3, windowS, n)
		queries[i] += float64(len(w.reqs[s.req].queries))
		lat[i] = append(lat[i], s.ms)
	}
	out := map[string][]float64{}
	for i := range lat {
		sort.Float64s(lat[i])
		out["throughput_qps"] = append(out["throughput_qps"], queries[i]/(windowS/n))
		out["latency_p50_ms"] = append(out["latency_p50_ms"], percentile(lat[i], 0.5))
		out["latency_p99_ms"] = append(out["latency_p99_ms"], percentile(lat[i], 0.99))
	}
	return out
}
