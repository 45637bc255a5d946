package dcsim

import (
	"runtime"
	"testing"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

// benchConfig is the canonical engine benchmark scenario — the same trace
// and configuration cmd/benchfleet records in BENCH_fleet.json.
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

func benchRun(b *testing.B, cfg Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCSimSequential(b *testing.B) { benchRun(b, benchConfig(b, 0, false)) }

func BenchmarkDCSimParallel(b *testing.B) {
	benchRun(b, benchConfig(b, runtime.GOMAXPROCS(0), false))
}

func BenchmarkDCSimTransitions(b *testing.B) { benchRun(b, benchConfig(b, 0, true)) }

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
