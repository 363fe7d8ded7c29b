package server

import (
	"math"
	"sync"
	"time"
)

// Limiter is a bounded in-flight request limiter: a non-blocking
// semaphore. Admission never queues — a full server sheds immediately
// with 503 so the client's retry budget, not the server's memory, holds
// the backlog (load shedding, not load absorbing).
type Limiter struct {
	slots chan struct{}
}

// NewLimiter returns a limiter admitting at most n concurrent requests.
// n <= 0 disables limiting (every TryAcquire succeeds).
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		return &Limiter{}
	}
	return &Limiter{slots: make(chan struct{}, n)}
}

// TryAcquire claims a slot without blocking, reporting whether one was
// free. A true return must be paired with exactly one Release.
func (l *Limiter) TryAcquire() bool {
	if l.slots == nil {
		return true
	}
	select {
	case l.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (l *Limiter) Release() {
	if l.slots != nil {
		<-l.slots
	}
}

// InFlight returns the number of currently held slots.
func (l *Limiter) InFlight() int { return len(l.slots) }

// TenantBuckets rate-limits per-tenant work with token buckets
// denominated in chunks — the unit every stop rule, budget, and
// simulated cost in the system is already priced in — so one tenant's
// 200-chunk batch and another's 5-chunk point query draw from their
// buckets in proportion to the work they actually cause.
//
// Tokens refill continuously at Rate chunks/second up to Burst. A grant
// is charged up front from the request's declared budget (its worst
// case); the unspent remainder is refunded after the search, so a query
// that stopped early doesn't pay for chunks it never read.
type TenantBuckets struct {
	rate  float64 // chunks per second; <= 0 disables limiting
	burst float64 // bucket capacity in chunks
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewTenantBuckets returns buckets refilling at rate chunks/second with
// capacity burst. rate <= 0 disables limiting entirely; burst < rate is
// raised to rate so a full second of refill always fits. The clock is
// injectable for tests; pass nil for time.Now.
func NewTenantBuckets(rate, burst float64, now func() time.Time) *TenantBuckets {
	if burst < rate {
		burst = rate
	}
	if now == nil {
		now = time.Now
	}
	return &TenantBuckets{rate: rate, burst: burst, now: now, buckets: map[string]*bucket{}}
}

// get returns tenant's bucket refilled to the current instant. Callers
// hold tb.mu.
func (tb *TenantBuckets) get(tenant string) *bucket {
	now := tb.now()
	b := tb.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: tb.burst, last: now}
		tb.buckets[tenant] = b
		return b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens = math.Min(tb.burst, b.tokens+elapsed*tb.rate)
		b.last = now
	}
	return b
}

// Take atomically charges n chunks to tenant's bucket. On refusal it
// returns the wait until n tokens will have refilled — the Retry-After
// the handler sends with its 429. No wait suffices when n exceeds the
// burst; the handler checks for that itself.
func (tb *TenantBuckets) Take(tenant string, n int) (ok bool, retryAfter time.Duration) {
	if tb.rate <= 0 || n <= 0 {
		return true, 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	b := tb.get(tenant)
	want := float64(n)
	if b.tokens >= want {
		b.tokens -= want
		return true, 0
	}
	return false, time.Duration((want - b.tokens) / tb.rate * float64(time.Second))
}

// TakeUpTo charges as many of the n requested chunks as the bucket
// holds, returning the granted count (possibly 0). This is the
// best-effort degraded-admission path: instead of shedding a
// chunk-budget request outright, the server shrinks its budget to what
// the tenant can afford right now.
func (tb *TenantBuckets) TakeUpTo(tenant string, n int) int {
	if tb.rate <= 0 || n <= 0 {
		return n
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	b := tb.get(tenant)
	granted := math.Min(float64(n), math.Floor(b.tokens))
	if granted <= 0 {
		return 0
	}
	b.tokens -= granted
	return int(granted)
}

// Refund returns n unspent chunks to tenant's bucket, capped at Burst.
// Handlers call it with (granted − actually read) after every search so
// early-stopping queries are billed for real work only.
func (tb *TenantBuckets) Refund(tenant string, n int) {
	if tb.rate <= 0 || n <= 0 {
		return
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	b := tb.get(tenant)
	b.tokens = math.Min(tb.burst, b.tokens+float64(n))
}

// Charge subtracts n chunks unconditionally, letting the bucket go
// negative. It settles actual cost above the admission price (a
// request that declares no stop rule is priced at the server's default
// and can read more): the tenant runs a debt that must refill
// before its next admission, so underestimates are paid back rather
// than forgotten.
func (tb *TenantBuckets) Charge(tenant string, n int) {
	if tb.rate <= 0 || n <= 0 {
		return
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	b := tb.get(tenant)
	b.tokens -= float64(n)
}

// RetryAfter returns the wait until tenant's bucket will hold n chunks
// (0 when it already does, or when limiting is disabled). Like Take's,
// the wait is only meaningful for n within the burst.
func (tb *TenantBuckets) RetryAfter(tenant string, n int) time.Duration {
	if tb.rate <= 0 || n <= 0 {
		return 0
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	b := tb.get(tenant)
	need := float64(n) - b.tokens
	if need <= 0 {
		return 0
	}
	return time.Duration(need / tb.rate * float64(time.Second))
}
