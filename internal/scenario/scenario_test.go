package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// smallConfig returns a fast two-pack, two-policy grid.
func smallConfig(t *testing.T) MatrixConfig {
	t.Helper()
	params := trace.FamilyParams{Machines: 30, HorizonSec: 2 * 3600, Tasks: 150, Seed: 42}
	var packs []Pack
	for _, name := range []string{"diurnal", "flashcrowd"} {
		tr, err := trace.GenerateFamily(name, params)
		if err != nil {
			t.Fatal(err)
		}
		packs = append(packs, Pack{Name: name, Trace: tr})
	}
	return MatrixConfig{
		Packs:         packs,
		Policies:      []string{"reactive", "ewma"},
		ChaosScenario: "light",
		ChaosSeed:     7,
		Workers:       2,
	}
}

func TestMatrixGridOrderAndLookup(t *testing.T) {
	cfg := smallConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(m.Cells))
	}
	i := 0
	for _, pack := range cfg.Packs {
		for _, pol := range cfg.Policies {
			c := m.Cells[i]
			if c.Scenario != pack.Name || c.Policy != pol {
				t.Fatalf("cell %d = %s/%s, want %s/%s", i, c.Scenario, c.Policy, pack.Name, pol)
			}
			if c.Report.Trace != pack.Trace.Name {
				t.Errorf("cell %d ran trace %q, want %q", i, c.Report.Trace, pack.Trace.Name)
			}
			if c.Report.Scenario != "light" {
				t.Errorf("cell %d chaos %q, want light", i, c.Report.Scenario)
			}
			got, ok := m.Cell(pack.Name, pol)
			if !ok || got.Report != c.Report {
				t.Errorf("Cell(%s, %s) lookup failed", pack.Name, pol)
			}
			i++
		}
	}
	if _, ok := m.Cell("nope", "reactive"); ok {
		t.Error("lookup of a missing cell succeeded")
	}
}

// TestMatrixDeterministicAcrossWorkers pins the acceptance criterion: the
// rendered artifact is bit-identical across runs and across worker counts.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	var first string
	for _, workers := range []int{1, 3, 16} {
		cfg := smallConfig(t)
		cfg.Workers = workers
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := m.Render()
		if first == "" {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("matrix with %d workers differs from 1 worker:\n%s\n--- vs ---\n%s", workers, got, first)
		}
	}
	// And across repeated runs with the same config.
	m, err := Run(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.Render() != first {
		t.Fatal("matrix differs across runs with the identical config")
	}
}

// TestMatrixMatchesRunChaos is the differential check of the shared-oracle
// split: every cell equals a standalone autopilot.RunChaos on the cell's
// configuration, under every chaos preset (the empty "off" plan, which
// reuses the fault-free twin, included) and at one and several workers.
func TestMatrixMatchesRunChaos(t *testing.T) {
	for _, preset := range chaos.ScenarioNames() {
		cfg := smallConfig(t)
		cfg.ChaosScenario = preset
		var want []chaos.Report
		for _, pack := range cfg.Packs {
			plan, err := chaos.Scenario(preset, pack.Trace.HorizonSec, pack.Trace.Machines, cfg.ChaosSeed)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range cfg.Policies {
				policy, err := cfg.policyFor(name)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := autopilot.RunChaos(autopilot.Config{
					Trace:      pack.Trace,
					Policy:     policy,
					Machine:    energy.Profiles()[0],
					ServerSpec: consolidation.DefaultServerSpec(),
					TickSec:    300,
				}, plan)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, rep)
			}
		}
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			m, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Cells) != len(want) {
				t.Fatalf("%s/%d workers: %d cells, want %d", preset, workers, len(m.Cells), len(want))
			}
			for i, c := range m.Cells {
				if !reflect.DeepEqual(c.Report, want[i]) {
					t.Errorf("%s/%d workers: cell %s/%s differs from RunChaos:\n got %+v\nwant %+v",
						preset, workers, c.Scenario, c.Policy, c.Report, want[i])
				}
			}
		}
	}
}

// TestMatrixRunsEachPackOracleOnce pins the work the shared oracle saves:
// the oracle depends on the pack, not the policy, so a pack costs one
// fault-free and one faulted oracle run however many policies it crosses —
// and only the fault-free one when the plan is empty.
func TestMatrixRunsEachPackOracleOnce(t *testing.T) {
	var runs atomic.Int64
	orig := runOracle
	runOracle = func(c autopilot.Config) (dcsim.Result, error) {
		runs.Add(1)
		return orig(c)
	}
	t.Cleanup(func() { runOracle = orig })

	cfg, err := DefaultMatrixConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	for _, tc := range []struct {
		preset  string
		perPack int64
	}{{"light", 2}, {"off", 1}} {
		runs.Store(0)
		cfg.ChaosScenario = tc.preset
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Cells) != 15 {
			t.Fatalf("%d cells, want 15", len(m.Cells))
		}
		if got, want := runs.Load(), tc.perPack*int64(len(cfg.Packs)); got != want {
			t.Errorf("%s: %d oracle runs for %d cells, want %d", tc.preset, got, len(m.Cells), want)
		}
	}
}

// BenchmarkScenarioMatrix is the matrix-cell layer benchmark: the five
// families at the default envelope crossed with the three policies under
// light chaos, timed per 15-cell matrix (ns/op) and as cells/s.
func BenchmarkScenarioMatrix(b *testing.B) {
	packs, err := FamilyPacks(trace.DefaultFamilyParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := MatrixConfig{
				Packs:         packs,
				Policies:      []string{"reactive", "hysteresis", "ewma"},
				ChaosScenario: "light",
				ChaosSeed:     42,
				Workers:       workers,
			}
			b.ReportAllocs()
			b.ResetTimer()
			cells := 0
			for i := 0; i < b.N; i++ {
				m, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cells += len(m.Cells)
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// TestGoldenMatrix pins the default policy×scenario artifact byte for byte.
func TestGoldenMatrix(t *testing.T) {
	cfg, err := DefaultMatrixConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(m.Render())
	golden := filepath.Join("testdata", "matrix.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (bless the golden file with: go test ./internal/scenario -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("matrix drifted from %s (re-bless with -update after checking the diff):\n--- got ---\n%s", golden, got)
	}
}

func TestMatrixValidation(t *testing.T) {
	for i, mutate := range []func(*MatrixConfig){
		func(c *MatrixConfig) { c.Packs = nil },
		func(c *MatrixConfig) { c.Packs[0].Name = "" },
		func(c *MatrixConfig) { c.Packs[1].Name = c.Packs[0].Name },
		func(c *MatrixConfig) { c.Packs[0].Trace = nil },
		func(c *MatrixConfig) { c.Packs[0].Trace = &trace.Trace{Name: "broken"} },
		func(c *MatrixConfig) { c.Policies = nil },
		func(c *MatrixConfig) { c.Policies = []string{"nope"} },
		func(c *MatrixConfig) { c.Planner = "nope" },
		func(c *MatrixConfig) { c.ChaosScenario = "nope" },
	} {
		cfg := smallConfig(t)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d: expected an error", i)
		}
	}
	// The unknown-policy error names the valid roster.
	cfg := smallConfig(t)
	cfg.Policies = []string{"nope"}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Errorf("unknown-policy error %v should list the roster", err)
	}
}

func TestFamilyPacks(t *testing.T) {
	params := trace.FamilyParams{Machines: 10, HorizonSec: 3600, Tasks: 50, Seed: 1}
	packs, err := FamilyPacks(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(packs) != len(trace.Families()) {
		t.Fatalf("%d packs, want %d", len(packs), len(trace.Families()))
	}
	for _, p := range packs {
		if err := p.Trace.Validate(); err != nil {
			t.Errorf("pack %s: %v", p.Name, err)
		}
	}
	params.Tasks = 0
	if _, err := FamilyPacks(params); err == nil {
		t.Error("invalid params accepted")
	}
}
