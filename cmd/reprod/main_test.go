package main

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// TestRunBadFlags pins the daemon's startup error paths: every
// misconfiguration must fail fast with a diagnostic error, never start
// listening half-configured.
func TestRunBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"no indexes", []string{"-addr", "127.0.0.1:0"}, "no indexes to serve"},
		{"index missing equals", []string{"-index", "justaname"}, "want name=path"},
		{"index empty name", []string{"-index", "=/tmp/x"}, "want name=path"},
		{"index empty path", []string{"-index", "main="}, "want name=path"},
		{"negative inflight", []string{"-index", "m=/tmp/x", "-max-inflight", "-1"}, "negative"},
		{"negative rate", []string{"-index", "m=/tmp/x", "-tenant-rate", "-2"}, "negative"},
		{"negative drain", []string{"-index", "m=/tmp/x", "-drain-timeout", "-1s"}, "negative"},
		{"unreadable index path", []string{"-index", "main=/nonexistent/idx"}, `index "main"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, io.Discard, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) = nil, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// syncBuffer is a mutex-guarded string buffer: run writes progress to
// it from the test goroutine while the test polls it from another.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunServeAndDrain runs the real daemon end to end on a saved
// index: start serving, cancel the context (what SIGTERM does), and
// require a clean drain with a nil error.
func TestRunServeAndDrain(t *testing.T) {
	dir := t.TempDir()
	coll := repro.GenerateCollection(600, 7)
	ix, err := repro.BuildSharded(coll, repro.BuildConfig{Strategy: repro.StrategySRTree, ChunkSize: 200}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-index", "tiny=" + dir,
			"-drain-timeout", "5s",
		}, &out, io.Discard)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), "serving") {
		select {
		case err := <-done:
			t.Fatalf("daemon exited before serving: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported serving:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not drain within 10s:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Fatalf("missing clean-shutdown message:\n%s", out.String())
	}
}
