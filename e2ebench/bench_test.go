package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/scenario"
)

func TestMain(m *testing.M) {
	// The gateway profile's sessions each register 1 GiB of zombie memory;
	// hold the smoke runs to the same heap limit the command uses.
	debug.SetMemoryLimit(memLimit)
	os.Exit(m.Run())
}

func tinyOptions(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload,
		seed:     7,
		duration: 300 * time.Millisecond,
		traced:   traced,
		tiny:     true,
		setups:   2,
		spansDir: t.TempDir(),
	}
}

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced, and checks that each named metric is printed with its unit and
// that the run is correct (the traced digests equal the untraced ones).
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(tinyOptions(t, w.name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, len(endToEndMetrics))
			for _, m := range endToEndMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", m.name, got, m.unit)
				}
			}
			for _, name := range []string{"throughput_per_s", "p50_ms", "peak_rss_mib", "setup_s"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}

			res, err = run(tinyOptions(t, w.name, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, len(layerMetrics))
			for _, m := range layerMetrics {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", m.name, got, m.unit)
				}
			}
		})
	}
}

func checkResult(t *testing.T, res result, metrics int) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result: correct %v, %d failed of %d attempted", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != metrics {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), metrics)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}

// TestFailedChecksRaiseErrorRate feeds each workload's check a fake wrong
// output and requires the result to count it.
func TestFailedChecksRaiseErrorRate(t *testing.T) {
	good := autopilot.Result{Policy: "hysteresis", Ticks: 10, EnergyJoules: 100}
	bad := good
	bad.EnergyJoules = 101
	overOracle := scenario.Cell{Scenario: "fake", Policy: "reactive", Report: chaos.Report{
		OracleSavingPercent: 40, FaultFreeSavingPercent: 45, OracleFaultedSavingPercent: 47, SavingPercent: 44, Arrivals: 10,
	}}
	overFaultedOracle := scenario.Cell{Scenario: "fake", Policy: "ewma", Report: chaos.Report{
		OracleSavingPercent: 50, FaultFreeSavingPercent: 45, OracleFaultedSavingPercent: 47, SavingPercent: 48, Arrivals: 10,
	}}
	withinBounds := scenario.Cell{Scenario: "fake", Policy: "hysteresis", Report: chaos.Report{
		OracleSavingPercent: 50, FaultFreeSavingPercent: 45, OracleFaultedSavingPercent: 47, SavingPercent: 46, Arrivals: 10,
	}}
	cases := []struct {
		name string
		ok   error
		bad  error
	}{
		{"live-replay", checkReplay(0, good, good), checkReplay(0, bad, good)},
		{"dataplane", checkRead(3, 1, []byte{1, 2}, []byte{1, 2}), checkRead(3, 1, []byte{1, 2}, []byte{1, 3})},
		{"matrix oracle bound", checkCell(withinBounds), checkCell(overOracle)},
		{"matrix faulted oracle bound", checkCell(withinBounds), checkCell(overFaultedOracle)},
		{"gateway status", checkStatus(sample{endpoint: "create", status: http.StatusCreated}),
			checkStatus(sample{endpoint: "report", status: http.StatusInternalServerError})},
		{"gateway refused", checkStatus(sample{endpoint: "place", status: http.StatusConflict}),
			checkStatus(sample{endpoint: "workloads", status: http.StatusTooManyRequests})},
	}
	for _, c := range cases {
		if c.ok != nil {
			t.Errorf("%s: a correct output failed its check: %v", c.name, c.ok)
		}
		if c.bad == nil {
			t.Fatalf("%s: a wrong output passed its check", c.name)
		}
		p := newPhase(options{seed: 7}, liveReplay, nil)
		p.done(4, time.Millisecond)
		p.wrong(1, c.bad)
		res := newResult(p)
		if res.Correct || res.Failed != 1 || res.Attempted != 4 {
			t.Errorf("%s: result correct %v, %d failed of %d attempted; want a failure counted", c.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestCellRefusingArrivalsSkipsBounds pins the oracle-bound precondition: a
// cell whose online loop refused arrivals saved energy over fewer tasks.
func TestCellRefusingArrivalsSkipsBounds(t *testing.T) {
	c := scenario.Cell{Scenario: "mlbatch", Policy: "reactive", Report: chaos.Report{
		OracleSavingPercent: 1, FaultFreeSavingPercent: 11, SavingPercent: 12, Arrivals: 3000, Rejected: 2700,
	}}
	if err := checkCell(c); err != nil {
		t.Fatalf("refusing cell failed the bounds: %v", err)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, the README and the
// metric tables in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s, code %s/%s", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, code %s/%s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("README.md does not document %s", m.Name)
		}
	}
	for _, m := range spec.PerLayer {
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("README.md does not document %s", m.Name)
		}
	}
}
