package obs

import "testing"

// benchOp builds the instrumented hot path: a registry holding the shapes
// the runtime layers use — a plain counter, a per-label counter and a
// latency histogram — is pre-warmed, and the returned op performs one
// increment of each plus one histogram observation, i.e. the metrics work
// of accounting one request. This is the enabled-path half of the overhead
// budget; the disabled path (nil receivers, nil handles) is pinned to zero
// allocations by the layer tests.
func benchOp() func() {
	r := NewRegistry()
	total := r.Counter("bench_ops_total", "benchmark op counter")
	byRoute := r.CounterVec("bench_route_ops_total", "benchmark labelled counter", "route")
	lat := r.Histogram("bench_op_ns", "benchmark op latency")
	route := byRoute.With("bench-route") // warmed: the only allocation the vec path makes
	var tick int64
	return func() {
		tick++
		total.Inc()
		route.Inc()
		lat.Observe(tick)
	}
}

// TestBenchOpAllocs pins the enabled-path overhead budget: the instrumented
// hot path must not allocate. BenchmarkObsHotPath times the same op.
func TestBenchOpAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, benchOp()); n != 0 {
		t.Fatalf("instrumented hot path allocates %v per op, want 0", n)
	}
}

// BenchmarkObsHotPath times one instrumented request's metrics work.
func BenchmarkObsHotPath(b *testing.B) {
	op := benchOp()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
