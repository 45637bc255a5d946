package gateway

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded settable clock for quota/eviction tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock(at time.Time) *fakeClock { return &fakeClock{t: at} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestQuotaCacheWindow pins the fixed-window semantics: limit admissions per
// window per tenant, independent tenants, and a fresh budget after rollover.
func TestQuotaCacheWindow(t *testing.T) {
	clock := newFakeClock(time.Unix(5000, 0))
	q := newQuotaCache(3, time.Second, clock.Now)

	for i := 0; i < 3; i++ {
		if !q.allow("alice") {
			t.Fatalf("alice request %d rejected inside the budget", i)
		}
	}
	if q.allow("alice") {
		t.Fatal("alice request 4 admitted beyond the budget")
	}
	// Another tenant has its own bucket.
	if !q.allow("bob") {
		t.Fatal("bob's first request rejected by alice's exhausted bucket")
	}
	// Rolling the window resets the tenant budget.
	clock.Advance(time.Second)
	if !q.allow("alice") {
		t.Fatal("alice rejected after the window rolled over")
	}
	// Partial advance inside the same window does not reset.
	for i := 0; i < 2; i++ {
		q.allow("alice")
	}
	clock.Advance(200 * time.Millisecond)
	if q.allow("alice") {
		t.Fatal("mid-window advance refreshed the budget")
	}
}

// TestQuotaCacheDisabled pins that a non-positive limit turns the limiter off.
func TestQuotaCacheDisabled(t *testing.T) {
	q := newQuotaCache(0, time.Second, nil)
	for i := 0; i < 1000; i++ {
		if !q.allow("anyone") {
			t.Fatal("disabled limiter rejected a request")
		}
	}
}

// TestQuotaCacheRetryAfter pins the Retry-After hint: whole seconds, >= 1.
func TestQuotaCacheRetryAfter(t *testing.T) {
	clock := newFakeClock(time.Unix(5000, 0).Add(300 * time.Millisecond))
	q := newQuotaCache(1, time.Second, clock.Now)
	if got := q.retryAfter(); got < time.Second {
		t.Fatalf("retryAfter = %v, want >= 1s", got)
	}
}

// TestQuotaCacheConcurrent hammers one bucket from many goroutines and checks
// the CAS loop admits exactly the budget.
func TestQuotaCacheConcurrent(t *testing.T) {
	const limit = 100
	clock := newFakeClock(time.Unix(5000, 0))
	q := newQuotaCache(limit, time.Hour, clock.Now)

	var wg sync.WaitGroup
	counts := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if q.allow("shared") {
					counts[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != limit {
		t.Fatalf("admitted %d requests, want exactly %d", total, limit)
	}
}

// TestQuotaCacheFastPathAllocs pins the hot path: once a tenant's bucket
// exists, allow is allocation-free. Skipped under the race detector, whose
// instrumentation changes allocation behaviour.
func TestQuotaCacheFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	q := warmQuota()
	allocs := testing.AllocsPerRun(1000, func() {
		if !q.allow("tenant") {
			t.Fatal("warm tenant rejected inside a huge budget")
		}
	})
	if allocs != 0 {
		t.Fatalf("allow allocated %.1f objects/op on the warm path, want 0", allocs)
	}
}

// warmQuota returns a limiter with an effectively unlimited budget whose
// "tenant" bucket already exists (the one allocation the fast path makes).
func warmQuota() *quotaCache {
	q := newQuotaCache(1<<30, time.Hour, nil)
	q.allow("tenant")
	return q
}

// BenchmarkQuotaAllow times one warm allow() check, the lock-free fast path
// TestQuotaCacheFastPathAllocs pins at zero allocations.
func BenchmarkQuotaAllow(b *testing.B) {
	q := warmQuota()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.allow("tenant") {
			b.Fatal("warm tenant rejected inside a huge budget")
		}
	}
}
