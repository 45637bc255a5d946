package dcsim

import (
	"runtime"
	"testing"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

// benchConfig is the canonical engine benchmark scenario: a short
// consolidation period over a day-long trace gives the engine many epochs
// to shard.
func benchConfig(b *testing.B, workers int, transitions bool) Config {
	b.Helper()
	tr, err := trace.Generate(trace.GeneratorConfig{
		Name: "bench", Machines: 200, HorizonSec: 24 * 3600, Tasks: 3000,
		MemoryToCPURatio: 3, MeanUtilization: 0.35, IdleFraction: 0.25, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Trace:                  tr,
		Policy:                 consolidation.NewZombieStack(),
		Machine:                energy.HPProfile(),
		ServerSpec:             consolidation.DefaultServerSpec(),
		ConsolidationPeriodSec: 30,
		Workers:                workers,
		TransitionCosts:        transitions,
	}
}

// benchRun times full runs of cfg and reports the last run's result.
func benchRun(b *testing.B, cfg Config) Result {
	b.ReportAllocs()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SavingPercent, "saving-%")
	return res
}

// BenchmarkDCSimSequential is the single-threaded baseline of the engine.
func BenchmarkDCSimSequential(b *testing.B) { benchRun(b, benchConfig(b, 0, false)) }

// benchWorkers is the pool size of the parallel rows. It is fixed rather
// than GOMAXPROCS so a row does the same work, and makes the same
// allocations, on every host its baseline is compared on.
const benchWorkers = 4

// BenchmarkDCSimParallel shards the same simulation's per-epoch accounting
// across benchWorkers workers; the results are bit-identical to the
// sequential run (TestParallelMatchesSequential).
func BenchmarkDCSimParallel(b *testing.B) { benchRun(b, benchConfig(b, benchWorkers, false)) }

// BenchmarkDCSimTransitions charges every ACPI transition, migration drain
// and remote-memory fault on the sequential scenario. Its saving is the
// costed Figure 10 number; the delta against BenchmarkDCSimSequential's is
// the optimism of the uncosted bound.
func BenchmarkDCSimTransitions(b *testing.B) {
	res := benchRun(b, benchConfig(b, 0, true))
	b.ReportMetric(res.TransitionJoules/1e3, "transition-kJ")
	b.ReportMetric(float64(res.StateTransitions), "transitions")
	b.ReportMetric(float64(res.Migrations), "migrations")
}

// BenchmarkDCSimSweep measures the scenario-sweep harness on the default
// Figure 10 grid, scaled down to benchmark size, over benchWorkers workers.
func BenchmarkDCSimSweep(b *testing.B) {
	cfg := DefaultSweepConfig()
	for i := range cfg.TraceConfigs {
		cfg.TraceConfigs[i].Machines = 80
		cfg.TraceConfigs[i].Tasks = 800
		cfg.TraceConfigs[i].HorizonSec = 6 * 3600
	}
	cfg.SweepWorkers = benchWorkers
	b.ReportAllocs()
	b.ResetTimer()
	var runs int
	for i := 0; i < b.N; i++ {
		res, err := Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runs = len(res.Runs)
	}
	b.ReportMetric(float64(runs), "scenarios")
}

// minAllocs returns the fewest heap allocations fn performs over runs
// calls. MemStats counts the whole process, so a window can also catch a
// background goroutine's mallocs; noise only ever adds, while an allocation
// fn really makes shows up in every run, so the minimum is fn's own count.
func minAllocs(runs int, fn func()) uint64 {
	var least uint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestEpochLoopAllocationBudget pins the allocation-free epoch loop: a run's
// allocation count is dominated by per-run setup (the sorted task slice, the
// replayer and its buffers, the spans and stats slices) and must NOT scale
// with the number of epochs. Tripling the epoch count by shrinking the
// consolidation period may only add a fixed slack — if the per-epoch path
// (population, plan, pricing, stats) starts allocating, the growth is at
// least one allocation per extra epoch and the budget fails loudly.
func TestEpochLoopAllocationBudget(t *testing.T) {
	tr := engineTestTrace(t)
	cfg := Config{
		Trace:      tr,
		Policy:     consolidation.NewZombieStack(),
		Machine:    energy.HPProfile(),
		ServerSpec: consolidation.DefaultServerSpec(),
	}
	runOnce := func(periodSec int64) func() {
		c := cfg
		c.ConsolidationPeriodSec = periodSec
		return func() {
			if _, err := Run(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up lazy runtime and profile state (the Sz power-fraction cache,
	// trace bookkeeping) so neither measurement pays first-use allocations.
	runOnce(300)()
	runOnce(100)()

	base := minAllocs(5, runOnce(300))
	tripled := minAllocs(5, runOnce(100))

	spansBase := len(epochSpans(tr.HorizonSec, 300))
	spansTripled := len(epochSpans(tr.HorizonSec, 100))
	extraEpochs := uint64(spansTripled - spansBase)
	// The budget is far below one allocation per extra epoch (the signature
	// of a per-epoch allocation creeping back in) but absorbs the runtime
	// noise the minimum over runs leaves.
	budget := base + extraEpochs/4
	if tripled > budget {
		t.Fatalf("epoch loop allocates per epoch: %d epochs cost %d allocs, %d epochs cost %d (budget %d)",
			spansBase, base, spansTripled, tripled, budget)
	}
}
