// Command reprod serves one or more chunk indexes over HTTP/JSON with
// the robustness envelope of internal/server: per-request deadlines
// propagated down to the chunk loop, bounded in-flight admission,
// per-tenant chunk-bucket rate limits, honest degraded results, a probe
// loop that calls every index's Probe each -probe-interval to take dead
// shards out of rotation and return revived ones, and graceful drain on
// SIGTERM/SIGINT.
//
// Usage:
//
//	reprod -addr :8080 -index main=/data/idx -index tv=/data/tv \
//	       -default-deadline 200ms -max-inflight 64 \
//	       -tenant-rate 500 -tenant-burst 2000 -best-effort \
//	       -cache-bytes 268435456
//
// Each -index value is name=path, where path is an index directory as
// written by ShardedIndex.Save (and by chunkbuild).
//
// Endpoints: POST /v1/indexes/{index}/search, .../batch, .../multi;
// GET /v1/indexes, /healthz, /readyz, /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "reprod: %v\n", err)
		os.Exit(1)
	}
}

// indexSpec is one parsed -index flag.
type indexSpec struct {
	name, path string
}

// run is the whole daemon behind a testable seam: flags in, diagnostics
// out, non-nil error on any failure. It serves until ctx is cancelled
// (the signal handler in main), then drains and exits.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("reprod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	defaultDeadline := fs.Duration("default-deadline", 0, "deadline for requests without X-Deadline-Ms (0 = none)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrently executing requests; excess shed with 503 (0 = unlimited)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant budget in chunks/second (0 = unlimited)")
	tenantBurst := fs.Float64("tenant-burst", 0, "per-tenant bucket capacity in chunks (min: tenant-rate)")
	bestEffort := fs.Bool("best-effort", false, "shrink over-budget chunk-budget requests instead of shedding with 429")
	probeInterval := fs.Duration("probe-interval", 0, "shard health probe period (0 = 250ms)")
	cacheBytes := fs.Int64("cache-bytes", 0, "decoded-chunk cache budget in bytes per index, shared across an index's shards (0 = no cache)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests at shutdown")
	var specs []indexSpec
	fs.Func("index", "name=path of an index to serve (repeatable); path is an index directory", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		specs = append(specs, indexSpec{name: name, path: path})
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("no indexes to serve: pass at least one -index name=path")
	}
	if *maxInFlight < 0 || *tenantRate < 0 || *tenantBurst < 0 ||
		*defaultDeadline < 0 || *probeInterval < 0 || *drainTimeout < 0 || *cacheBytes < 0 {
		return fmt.Errorf("negative values make no sense for limits, rates, sizes, or timeouts")
	}

	reg := server.NewRegistry()
	// On any failure below, close what was opened so a half-configured
	// daemon doesn't leak descriptors.
	defer reg.CloseAll()
	for _, spec := range specs {
		sx, err := repro.OpenShardedWith(spec.path, repro.OpenConfig{CacheBytes: *cacheBytes})
		if err != nil {
			return fmt.Errorf("index %q: %w", spec.name, err)
		}
		if err := reg.Add(spec.name, sx); err != nil {
			sx.Close()
			return err
		}
		fmt.Fprintf(stdout, "reprod: index %q: %d shards, R=%d, %d descriptors in %d chunks\n",
			spec.name, sx.Shards(), sx.Replication(), sx.Len(), sx.Chunks())
	}

	srv := server.New(reg, server.Config{
		DefaultDeadline: *defaultDeadline,
		MaxInFlight:     *maxInFlight,
		TenantRate:      *tenantRate,
		TenantBurst:     *tenantBurst,
		BestEffort:      *bestEffort,
		ProbeInterval:   *probeInterval,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	fmt.Fprintf(stdout, "reprod: serving %d index(es) on http://%s\n", len(specs), ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "reprod: draining")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil {
		return err
	}
	fmt.Fprintln(stdout, "reprod: shut down cleanly")
	return nil
}
