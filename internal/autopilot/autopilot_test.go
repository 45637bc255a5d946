package autopilot

import (
	"reflect"
	"testing"

	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// diurnalTrace is the canonical synthetic diurnal trace (the default
// generator config: 200 machines, 3000 tasks, one day, seed 42).
func diurnalTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baseConfig(tr *trace.Trace) Config {
	return Config{
		Trace:      tr,
		Machine:    energy.HPProfile(),
		ServerSpec: consolidation.DefaultServerSpec(),
		TickSec:    300,
	}
}

// TestAutopilotRegret is the acceptance test of the online control plane: on
// the synthetic diurnal trace every online policy's costed saving stays
// strictly below the offline dcsim oracle's, hysteresis flaps less than the
// reactive threshold without giving up savings, and the whole regret report
// is bit-identical across repeated runs of the same seed.
func TestAutopilotRegret(t *testing.T) {
	tr := diurnalTrace(t)
	cfg := baseConfig(tr)
	planner := consolidation.NewZombieStack()

	run := func() []Report {
		reports, err := CompareOnline(cfg, Policies(planner))
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	reports := run()
	if len(reports) != 3 {
		t.Fatalf("expected 3 policy reports, got %d", len(reports))
	}

	byName := make(map[string]Report, len(reports))
	for _, r := range reports {
		byName[r.Policy] = r

		// The oracle bound: online knowledge is a strict subset of the
		// oracle's, and both sides pay the same transition-cost model, so the
		// costed online saving must be strictly below the oracle's.
		if r.Online.SavingPercent >= r.Oracle.SavingPercent {
			t.Errorf("%s: online saving %.3f%% not strictly below the oracle's %.3f%%",
				r.Policy, r.Online.SavingPercent, r.Oracle.SavingPercent)
		}
		if r.RegretPercent <= 0 {
			t.Errorf("%s: regret %.3f points, want > 0", r.Policy, r.RegretPercent)
		}
		if r.RegretPercent != r.Oracle.SavingPercent-r.Online.SavingPercent {
			t.Errorf("%s: regret %.6f != oracle - online = %.6f",
				r.Policy, r.RegretPercent, r.Oracle.SavingPercent-r.Online.SavingPercent)
		}

		// Sanity of the run itself: the full population was seen, every tick
		// fired, and transition costs were actually charged.
		if r.Online.Arrivals != len(tr.Tasks) || r.Online.Admitted+r.Online.Rejected != r.Online.Arrivals {
			t.Errorf("%s: arrivals %d admitted %d rejected %d, trace has %d tasks",
				r.Policy, r.Online.Arrivals, r.Online.Admitted, r.Online.Rejected, len(tr.Tasks))
		}
		if want := int(tr.HorizonSec/cfg.TickSec) - 1; r.Online.Ticks != want {
			t.Errorf("%s: %d ticks, want %d", r.Policy, r.Online.Ticks, want)
		}
		if r.Online.TransitionJoules <= 0 || r.Online.StateTransitions == 0 {
			t.Errorf("%s: no transition costs charged (%.1f J, %d events)",
				r.Policy, r.Online.TransitionJoules, r.Online.StateTransitions)
		}
		if r.Online.SavingPercent <= 0 {
			t.Errorf("%s: online consolidation saved nothing (%.3f%%)", r.Policy, r.Online.SavingPercent)
		}
	}

	// Hysteresis exists to damp flapping: on the same trace it must perform
	// fewer ACPI transitions than the reactive threshold at equal or better
	// savings.
	reactive, hysteresis := byName["reactive"], byName["hysteresis"]
	if hysteresis.Online.StateTransitions >= reactive.Online.StateTransitions {
		t.Errorf("hysteresis performed %d ACPI transitions, reactive %d — watermarks did not damp flapping",
			hysteresis.Online.StateTransitions, reactive.Online.StateTransitions)
	}
	if hysteresis.Online.SavingPercent < reactive.Online.SavingPercent {
		t.Errorf("hysteresis saving %.3f%% below reactive %.3f%%",
			hysteresis.Online.SavingPercent, reactive.Online.SavingPercent)
	}

	// A fixed seed reproduces the full regret report bit for bit: the
	// rendered tables and every field of every report.
	again := run()
	if !reflect.DeepEqual(reports, again) {
		t.Fatalf("regret reports differ across identical runs:\n%+v\n%+v", reports, again)
	}
	if a, b := RenderComparison(reports), RenderComparison(again); a != b {
		t.Fatalf("rendered comparison differs across identical runs:\n%s\n%s", a, b)
	}
	for i := range reports {
		if a, b := reports[i].Render(), again[i].Render(); a != b {
			t.Fatalf("rendered report %d differs across identical runs:\n%s\n%s", i, a, b)
		}
	}
}

// TestAutopilotRegretAcrossPlanners checks the oracle bound for every bundled
// consolidation planner, not just ZombieStack.
func TestAutopilotRegretAcrossPlanners(t *testing.T) {
	tr := diurnalTrace(t)
	for _, planner := range consolidation.Contenders() {
		reports, err := CompareOnline(baseConfig(tr), Policies(planner))
		if err != nil {
			t.Fatalf("%s: %v", planner.Name(), err)
		}
		for _, r := range reports {
			if r.RegretPercent <= 0 {
				t.Errorf("%s/%s: regret %.3f points, want > 0", r.Policy, planner.Name(), r.RegretPercent)
			}
		}
	}
}

// unkeyedPlanner is a planner of a non-comparable type (it holds a slice),
// which cannot key CompareOnline's shared oracles.
type unkeyedPlanner struct {
	*consolidation.Neat
	tags []string
}

// TestCompareOnlineMatchesRegret pins CompareOnline's shared oracle: policies
// over one planner instance share its oracle, policies over other planners
// get their own, and every report equals a standalone Regret for its policy
// — under a chaos plan too, which both halves must perturb alike.
func TestCompareOnlineMatchesRegret(t *testing.T) {
	tr := chaosTrace(t)
	plan, err := chaos.Scenario("light", tr.HorizonSec, tr.Machines, 42)
	if err != nil {
		t.Fatal(err)
	}
	roster := func() []Policy {
		zs := consolidation.NewZombieStack()
		return append(Policies(zs),
			NewHysteresis(consolidation.NewNeat()),
			NewReactive(unkeyedPlanner{Neat: consolidation.NewNeat(), tags: []string{"x"}}),
			NewPredictiveEWMA(zs))
	}
	for _, c := range []*chaos.Plan{nil, plan} {
		cfg := baseConfig(tr)
		cfg.Chaos = c
		reports, err := CompareOnline(cfg, roster())
		if err != nil {
			t.Fatal(err)
		}
		for i, pol := range roster() {
			single := cfg
			single.Policy = pol
			want, err := Regret(single)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reports[i], want) {
				t.Errorf("chaos %v: report %d (%s/%s) differs from Regret:\n got %+v\nwant %+v",
					c != nil, i, want.Policy, want.Planner, reports[i], want)
			}
		}
	}
}

func TestAutopilotValidation(t *testing.T) {
	tr := diurnalTrace(t)
	good := baseConfig(tr)
	good.Policy = NewReactive(consolidation.NewZombieStack())
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"missing trace", func(c *Config) { c.Trace = nil }},
		{"missing policy", func(c *Config) { c.Policy = nil }},
		{"missing machine", func(c *Config) { c.Machine = nil }},
		{"bad server spec", func(c *Config) { c.ServerSpec = consolidation.ServerSpec{} }},
		{"negative tick", func(c *Config) { c.TickSec = -10 }},
		{"policy without planner", func(c *Config) { c.Policy = &ReactiveThreshold{} }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}

// TestAutopilotAdmissionRejects starves the fleet: a task whose booked
// reservation exceeds even the fully awake fleet must be rejected and must
// not count toward the admitted population.
func TestAutopilotAdmissionRejects(t *testing.T) {
	tr := &trace.Trace{
		Name:       "tiny",
		Machines:   2,
		HorizonSec: 1000,
		Tasks: []trace.Task{
			{ID: 0, StartSec: 0, EndSec: 900, BookedCPU: 12, BookedMemGiB: 24, UsedCPU: 6, UsedMemGiB: 12},
			{ID: 1, StartSec: 100, EndSec: 900, BookedCPU: 12, BookedMemGiB: 24, UsedCPU: 6, UsedMemGiB: 12},
		},
	}
	cfg := baseConfig(tr)
	cfg.TickSec = 250
	cfg.Policy = NewReactive(consolidation.NewZombieStack())
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two servers of 8 cores / 16 GiB hold one 12-core booking, not two.
	if res.Admitted != 1 || res.Rejected != 1 {
		t.Fatalf("admitted %d rejected %d, want 1/1", res.Admitted, res.Rejected)
	}
	if res.Departures != 1 {
		t.Fatalf("departures %d, want 1 (the rejected task never departs)", res.Departures)
	}
}

// TestAutopilotEmergencyWake forces an arrival that does not fit the
// consolidated posture: after the fleet has shrunk around a small task, a
// burst arrives mid-interval and must wake servers immediately — billed as
// ACPI transitions and the tick-quantized retroactive power charge.
func TestAutopilotEmergencyWake(t *testing.T) {
	tasks := []trace.Task{
		{ID: 0, StartSec: 0, EndSec: 2000, BookedCPU: 2, BookedMemGiB: 4, UsedCPU: 1, UsedMemGiB: 2},
	}
	// A burst of six fat tasks arriving mid-interval at t=450.
	for i := 1; i <= 6; i++ {
		tasks = append(tasks, trace.Task{
			ID: i, StartSec: 450, EndSec: 2000,
			BookedCPU: 7, BookedMemGiB: 14, UsedCPU: 5, UsedMemGiB: 10,
		})
	}
	tr := &trace.Trace{Name: "burst", Machines: 8, HorizonSec: 2000, Tasks: tasks}
	cfg := baseConfig(tr)
	cfg.TickSec = 300
	cfg.Policy = NewReactive(consolidation.NewZombieStack())
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 7 {
		t.Fatalf("admitted %d, want 7", res.Admitted)
	}
	if res.EmergencyWakes == 0 {
		t.Fatal("burst arrival inside a consolidated interval should force emergency wakes")
	}
	if res.TransitionJoules <= 0 {
		t.Fatal("emergency wakes must be billed")
	}
	if res.PeakActiveHosts != tr.Machines {
		t.Fatalf("peak active hosts %d, want %d (the initial all-awake posture)", res.PeakActiveHosts, tr.Machines)
	}
}

// TestAutopilotStreamConsistency: the loop's arrival/departure counters must
// agree with an independent walk of the trace's stream.
func TestAutopilotStreamConsistency(t *testing.T) {
	tr := diurnalTrace(t)
	cfg := baseConfig(tr)
	cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, departures := 0, 0
	s := trace.NewStream(tr)
	for ev, ok := s.Next(); ok; ev, ok = s.Next() {
		if ev.Kind == trace.Arrive {
			arrivals++
		} else {
			departures++
		}
	}
	if res.Arrivals != arrivals {
		t.Errorf("loop saw %d arrivals, stream has %d", res.Arrivals, arrivals)
	}
	// Every admitted task departs (tasks ending exactly at the horizon are
	// retired by the loop's final moment).
	if res.Departures != departures {
		t.Errorf("loop saw %d departures, stream has %d", res.Departures, departures)
	}
}

// TestFleetExecutorMirrorsPostures drives a live 2x2 fleet through posture
// changes and checks the per-server ACPI states track the plan.
func TestFleetExecutorMirrorsPostures(t *testing.T) {
	f, err := fleet.New(fleet.Config{Racks: 2, Rack: fleetRackConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := NewFleetExecutor(f)
	if e.Servers() != 4 {
		t.Fatalf("executor sees %d servers, want 4", e.Servers())
	}

	count := func(states []acpi.SleepState, s acpi.SleepState) int {
		n := 0
		for _, st := range states {
			if st == s {
				n++
			}
		}
		return n
	}

	initial := consolidation.InitialPlan(4)
	consolidated := consolidation.FleetPlan{ActiveHosts: 1, ZombieHosts: 2, SleepHosts: 1}
	if err := e.Apply(0, initial, consolidated); err != nil {
		t.Fatal(err)
	}
	st := e.States()
	if count(st, acpi.S0) != 1 || count(st, acpi.Sz) != 2 || count(st, acpi.S3) != 1 {
		t.Fatalf("states after consolidation: %v, want 1xS0 2xSz 1xS3", st)
	}

	// Advance the fleet clock: the rack energy ledger must integrate the
	// mixed posture (cheaper than four awake servers).
	e.Advance(3600)
	mixed := e.EnergyJoules()
	if mixed <= 0 {
		t.Fatal("fleet ledger did not accumulate energy")
	}

	// Wake everything back up; sleep-to-zombie and zombie-to-sleep paths both
	// route through S0.
	if err := e.Apply(3600, consolidated, initial); err != nil {
		t.Fatal(err)
	}
	if n := count(e.States(), acpi.S0); n != 4 {
		t.Fatalf("after wake-all, %d servers in S0, want 4", n)
	}

	// A posture for the wrong fleet size is refused.
	if err := e.Apply(0, initial, consolidation.InitialPlan(5)); err == nil {
		t.Fatal("executor accepted a posture for 5 hosts on a 4-server fleet")
	}
}

// TestAutopilotWithFleetExecutor runs the full loop against a live fleet and
// checks the decisions execute without divergence.
func TestAutopilotWithFleetExecutor(t *testing.T) {
	f, err := fleet.New(fleet.Config{Racks: 2, Rack: fleetRackConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{
		Name:       "mini",
		Machines:   4,
		HorizonSec: 1800,
		Tasks: []trace.Task{
			{ID: 0, StartSec: 0, EndSec: 1700, BookedCPU: 2, BookedMemGiB: 4, UsedCPU: 1, UsedMemGiB: 2},
			{ID: 1, StartSec: 400, EndSec: 1200, BookedCPU: 3, BookedMemGiB: 6, UsedCPU: 2, UsedMemGiB: 3},
		},
	}
	cfg := baseConfig(tr)
	cfg.TickSec = 300
	cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
	cfg.Executor = NewFleetExecutor(f)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 2 {
		t.Fatalf("admitted %d, want 2", res.Admitted)
	}
	if got := f.TotalEnergyJoules(); got <= 0 {
		t.Fatalf("fleet ledger after the run: %.1f J, want > 0", got)
	}

	// A fleet that does not match the trace's machine count is a
	// configuration error, caught by Validate instead of a mid-run panic.
	bad := cfg
	wrong := *tr
	wrong.Machines = 5
	bad.Trace = &wrong
	bad.Policy = NewHysteresis(consolidation.NewZombieStack())
	bad.Executor = NewFleetExecutor(f)
	if _, err := Run(bad); err == nil {
		t.Fatal("Run accepted a 4-server executor against a 5-machine trace")
	}
}

// fleetRackConfig keeps the test boards small: every Sz entry delegates the
// server's free memory as real RDMA buffer allocations, and the executor
// tests only exercise postures and energy, not data content.
func fleetRackConfig() core.Config {
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = 1 << 30
	return core.Config{Servers: 2, Board: board}
}

// BenchmarkAutopilotRun times one full online run per bundled policy on
// the synthetic diurnal trace (trace.DefaultConfig, 300 s ticks) and
// reports the re-planning tick throughput as ticks/s. Policies keep
// forecasting state across ticks, so every run gets a fresh instance.
func BenchmarkAutopilotRun(b *testing.B) {
	tr := diurnalTrace(b)
	for _, pol := range []struct {
		name string
		make func() Policy
	}{
		{"reactive", func() Policy { return NewReactive(consolidation.NewZombieStack()) }},
		{"hysteresis", func() Policy { return NewHysteresis(consolidation.NewZombieStack()) }},
		{"ewma", func() Policy { return NewPredictiveEWMA(consolidation.NewZombieStack()) }},
	} {
		b.Run(pol.name, func(b *testing.B) {
			b.ReportAllocs()
			ticks := 0
			for i := 0; i < b.N; i++ {
				cfg := baseConfig(tr)
				cfg.Policy = pol.make()
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Ticks == 0 {
					b.Fatal("no ticks executed")
				}
				ticks += res.Ticks
			}
			b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "ticks/s")
		})
	}
}
