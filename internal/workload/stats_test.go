package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/shard"
)

func resultsWithTimes(times ...time.Duration) []search.Result {
	rs := make([]search.Result, len(times))
	for i, d := range times {
		rs[i] = search.Result{Elapsed: d}
	}
	return rs
}

func TestSimulatedQuantileNearestRank(t *testing.T) {
	// 1..10ms in shuffled order: nearest-rank p50 is the 5th smallest,
	// p99 the 10th, p1 the 1st.
	rs := resultsWithTimes(
		7*time.Millisecond, 2*time.Millisecond, 9*time.Millisecond, 4*time.Millisecond,
		1*time.Millisecond, 10*time.Millisecond, 3*time.Millisecond, 8*time.Millisecond,
		5*time.Millisecond, 6*time.Millisecond,
	)
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 5 * time.Millisecond},
		{0.99, 10 * time.Millisecond},
		{1.00, 10 * time.Millisecond},
		{0.01, 1 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := SimulatedQuantile(rs, tc.q); got != tc.want {
			t.Fatalf("q=%g: got %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := SimulatedQuantile(rs, 0.50); got != 5*time.Millisecond {
		t.Fatalf("repeat call disturbed the results: %v", got)
	}
	if rs[0].Elapsed != 7*time.Millisecond {
		t.Fatalf("SimulatedQuantile sorted the caller's results: %v", rs[0].Elapsed)
	}
	if got := SimulatedQuantile(nil, 0.99); got != 0 {
		t.Fatalf("empty results: got %v, want 0", got)
	}
	if got := SimulatedQuantile(rs, 0); got != 0 {
		t.Fatalf("q=0: got %v, want 0", got)
	}
	if got := SimulatedQuantile(rs[:1], 0.99); got != 7*time.Millisecond {
		t.Fatalf("single result: got %v", got)
	}
}

func TestStddev(t *testing.T) {
	if got := Stddev(nil); got != 0 {
		t.Fatalf("empty: %g", got)
	}
	if got := Stddev([]float64{4, 4, 4}); got != 0 {
		t.Fatalf("constant: %g", got)
	}
	// Population stddev of {2, 4, 4, 4, 5, 5, 7, 9} is exactly 2.
	if got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("known case: got %g, want 2", got)
	}
}

func TestLoadExtractors(t *testing.T) {
	loads := []shard.ShardLoad{{Reads: 10}, {Reads: 0}, {Reads: 3}}
	reads := LoadReads(loads)
	wantReads := []float64{10, 0, 3}
	for i := range loads {
		if reads[i] != wantReads[i] {
			t.Fatalf("reads[%d] = %g, want %g", i, reads[i], wantReads[i])
		}
	}
}
