package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// endToEndMetrics are what a user of each workload sees. Every workload
// reports all of them; throughput_per_s and p50_ms count the workload's own
// unit (see workload.unit and workload.sample). throughput_per_s is the
// median over iterations of each iteration's rate, so one slow iteration on
// a shared host does not move it. Tail latencies are printed in the table
// but not reported: on live-replay and matrix no tail holds within a bound.
var endToEndMetrics = []struct{ name, unit string }{
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// layerMetric is one per-layer figure of the traced run: how it is read,
// and which end-to-end metric it should move on which workload. A layer a
// workload does not call reads 0.
type layerMetric struct {
	name, unit, moves string
	value             func(p *phase, a map[string]agg) float64
}

func meanUs(name string) func(*phase, map[string]agg) float64 {
	return func(_ *phase, a map[string]agg) float64 { return a[name].meanNs() / 1e3 }
}

func meanMs(name string) func(*phase, map[string]agg) float64 {
	return func(_ *phase, a map[string]agg) float64 { return a[name].meanNs() / 1e6 }
}

func spanCount(name string) func(*phase, map[string]agg) float64 {
	return func(_ *phase, a map[string]agg) float64 { return float64(a[name].count) }
}

func counted(name string) func(*phase, map[string]agg) float64 {
	return func(p *phase, _ map[string]agg) float64 { return p.counts[name] }
}

// perSec divides a counter by the seconds spent in a span.
func perSec(counter, spanName string) func(*phase, map[string]agg) float64 {
	return func(p *phase, a map[string]agg) float64 {
		if a[spanName].total == 0 {
			return 0
		}
		return p.counts[counter] / (float64(a[spanName].total) / 1e9)
	}
}

const mib = 1 << 20

var gatewayEndpoints = []string{"create", "place", "workloads", "report", "delete"}

var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"autopilot.tick_us", "us", "throughput_per_s on live-replay",
			func(p *phase, a map[string]agg) float64 {
				if p.counts["autopilot.ticks"] == 0 {
					return 0
				}
				return float64(a["autopilot.run"].self) / 1e3 / p.counts["autopilot.ticks"]
			}},
		{"autopilot.ticks", "count", "throughput_per_s on live-replay and matrix", counted("autopilot.ticks")},
		{"consolidation.plan_us", "us", "throughput_per_s on live-replay and matrix", meanUs("consolidation.plan")},
		{"consolidation.plans", "count", "throughput_per_s on live-replay and matrix", spanCount("consolidation.plan")},
		{"fleet.apply_us", "us", "throughput_per_s on live-replay", meanUs("fleet.apply")},
		{"fleet.transitions", "count", "throughput_per_s on live-replay", counted("fleet.transitions")},
		{"fleet.place_ms", "ms", "setup_s on dataplane", meanMs("fleet.place")},
		{"memctl.lent_mib", "MiB", "peak_rss_mib on live-replay and gateway", counted("memctl.lent_mib")},
		{"runtime.heap_per_lent", "ratio", "peak_rss_mib on live-replay and gateway", counted("runtime.heap_per_lent")},
		{"memplane.read_us", "us", "throughput_per_s on dataplane", meanUs("memplane.read")},
		{"memplane.write_us", "us", "throughput_per_s on dataplane", meanUs("memplane.write")},
		{"memplane.remote_frac", "ratio", "throughput_per_s on dataplane", counted("memplane.remote_frac")},
		{"memplane.sim_ns_per_op", "ns", "nothing: simulated, must not move on host-only changes", counted("memplane.sim_ns_per_op")},
		{"rdma.verb_us", "us", "throughput_per_s on dataplane", meanUs("rdma.verb")},
		{"rdma.verbs", "count", "throughput_per_s on dataplane", counted("rdma.verbs")},
	}
	for _, ep := range gatewayEndpoints {
		ms = append(ms, layerMetric{"gateway.handler_ms." + ep, "ms", "p50_ms on gateway", meanMs("gateway.handler." + ep)})
	}
	ms = append(ms,
		layerMetric{"gateway.client_overhead_ms", "ms", "p50_ms on gateway", counted("gateway.client_overhead_ms")},
		layerMetric{"gateway.req_p99_ms", "ms", "p50_ms and throughput_per_s on gateway", counted("gateway.req_p99_ms")},
		layerMetric{"gateway.create_p50_ms", "ms", "throughput_per_s on gateway", counted("gateway.create_p50_ms")},
		layerMetric{"gateway.place_refused_frac", "ratio", "throughput_per_s on gateway", counted("gateway.place_refused_frac")},
		layerMetric{"dcsim.oracle_ms", "ms", "throughput_per_s on matrix", meanMs("dcsim.oracle")},
		layerMetric{"dcsim.epochs_per_s", "1/s", "throughput_per_s on matrix", perSec("dcsim.epochs", "dcsim.oracle")},
		layerMetric{"scenario.cell_ms", "ms", "throughput_per_s on matrix", meanMs("scenario.cell")},
		layerMetric{"scenario.cell_max_ms", "ms", "throughput_per_s on matrix (the slowest cell bounds a 2-worker matrix)",
			func(_ *phase, a map[string]agg) float64 { return float64(a["scenario.cell"].max) / 1e6 }},
		layerMetric{"scenario.refused_arrivals_frac", "ratio", "throughput_per_s on matrix",
			func(p *phase, _ map[string]agg) float64 {
				if p.counts["scenario.arrivals"] == 0 {
					return 0
				}
				return p.counts["scenario.rejected"] / p.counts["scenario.arrivals"]
			}},
		layerMetric{"scenario.faulted_gain_cells", "count", "nothing: simulated; cells whose faulted run saved more than its fault-free twin",
			counted("scenario.faulted_gain_cells")},
		layerMetric{"trace.import_rows_per_s", "1/s", "setup_s on live-replay", perSec("trace.rows", "trace.import")},
		layerMetric{"trace.gen_ms", "ms", "setup_s on live-replay and matrix", meanMs("trace.gen")},
		layerMetric{"runtime.alloc_mib", "MiB", "peak_rss_mib and throughput_per_s on every workload",
			func(p *phase, _ map[string]agg) float64 {
				alloc := float64(p.rt1.TotalAlloc-p.rt0.TotalAlloc) - float64(p.tr.allocated())
				return math.Max(alloc, 0) / mib
			}},
		layerMetric{"runtime.gc_cycles", "count", "peak_rss_mib and throughput_per_s on every workload",
			func(p *phase, _ map[string]agg) float64 { return float64(p.rt1.NumGC - p.rt0.NumGC) }},
		layerMetric{"runtime.gc_pause_ms", "ms", "throughput_per_s on every workload",
			func(p *phase, _ map[string]agg) float64 { return float64(p.rt1.PauseTotalNs-p.rt0.PauseTotalNs) / 1e6 }},
		layerMetric{"runtime.live_heap_mib", "MiB", "peak_rss_mib on every workload",
			func(p *phase, _ map[string]agg) float64 { return float64(p.liveHeap) / mib }},
		layerMetric{"bench.trace_overhead_pct", "%", "nothing: traced minus untraced unit time", counted("bench.trace_overhead_pct")},
	)
	return ms
}()

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func newResult(p *phase) result {
	return result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   make(map[string]metric),
	}
}

// endToEnd builds the untraced run's result.
func endToEnd(p *phase) result {
	res := newResult(p)
	lat := sortedLatencies(p)
	rss, err := peakRSSMiB()
	if err != nil {
		p.checked(fmt.Errorf("reading peak RSS: %w", err))
		res = newResult(p)
	}
	vals := map[string]float64{
		"throughput_per_s": median(p.rates),
		"p50_ms":           float64(nearestRank(lat, 50)) / 1e6,
		"peak_rss_mib":     rss,
		"setup_s":          median(p.setupSecs),
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{finite(vals[m.name]), m.unit}
	}
	return res
}

// perLayer builds the traced run's result.
func perLayer(p *phase, a map[string]agg) result {
	res := newResult(p)
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{finite(m.value(p, a)), m.unit}
	}
	return res
}

// report prints the human-readable table that precedes the result line.
func report(out io.Writer, p *phase, res result, extra []string) {
	w := p.w
	mode := "untraced"
	if p.tr != nil {
		mode = "traced"
	}
	fmt.Fprintf(out, "e2ebench %s (%s), seed %d, %s run over %.2f s\n", w.name, w.why, p.opts.seed, mode, p.elapsed.Seconds())
	fmt.Fprintf(out, "  units: %d %s in %d iterations; latency samples: %d, one per %s\n", p.units, w.unit, len(p.rates), p.samples, w.sample)
	if lat := sortedLatencies(p); len(lat) > 0 {
		fmt.Fprintf(out, "  whole-run latency: p50 %.6g ms, p90 %.6g ms, p99 %.6g ms, max %.6g ms\n",
			float64(nearestRank(lat, 50))/1e6, float64(nearestRank(lat, 90))/1e6, float64(nearestRank(lat, 99))/1e6, float64(lat[len(lat)-1])/1e6)
	}
	if p.tr == nil {
		fmt.Fprintf(out, "  setup: %d builds, median taken\n", len(p.setupSecs))
		for _, m := range endToEndMetrics {
			fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
		}
	} else {
		fmt.Fprintf(out, "  %-28s %14s %-6s %s\n", "layer metric", "value", "unit", "should move")
		for _, m := range layerMetrics {
			fmt.Fprintf(out, "  %-28s %14.6g %-6s %s\n", m.name, res.Metrics[m.name].Value, m.unit, m.moves)
		}
	}
	rate := 0.0
	if p.attempted > 0 {
		rate = float64(p.failed) / float64(p.attempted)
	}
	fmt.Fprintf(out, "  error_rate %g (%d failed of %d attempted)\n", rate, p.failed, p.attempted)
	if len(p.notes) > 0 {
		fmt.Fprintf(out, "  failures: %s\n", strings.Join(p.notes, "; "))
	}
	for _, e := range extra {
		fmt.Fprintf(out, "  %s\n", e)
	}
}
