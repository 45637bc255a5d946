// Package scenario crosses the workload-family engine with the online
// policy roster: every scenario pack (a trace built by a family or imported
// from disk) is replayed against every policy, yielding one chaos.Report per
// cell — oracle bound, fault-free online saving, regret, faulted saving,
// resilience — the policy×scenario matrix the paper's two-trace evaluation
// never had. The offline oracle depends on the pack and the base planner but
// not on the online policy, so each pack's fault-free and faulted oracles
// run once and are shared by the pack's cells; each cell adds its own
// fault-free and faulted online runs, and its report equals the one
// autopilot.RunChaos gives for it. Cells land in grid order regardless of
// scheduling, so the rendered artifact is bit-identical across runs and
// worker counts and can be pinned as a golden file.
package scenario

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Pack is one scenario column: a named, ready-to-replay workload.
type Pack struct {
	// Name labels the matrix row group (usually the family name).
	Name string
	// Trace is the workload, already validated.
	Trace *trace.Trace
}

// FamilyPacks builds one pack per bundled workload family, all sharing the
// same envelope — the canonical scenario axis.
func FamilyPacks(p trace.FamilyParams) ([]Pack, error) {
	var packs []Pack
	for _, f := range trace.Families() {
		tr, err := f.Generate(p)
		if err != nil {
			return nil, err
		}
		packs = append(packs, Pack{Name: f.Name(), Trace: tr})
	}
	return packs, nil
}

// MatrixConfig describes a policy×scenario matrix run.
type MatrixConfig struct {
	// Packs are the scenario columns, replayed in order.
	Packs []Pack
	// Policies are online policy names ("reactive", "hysteresis", "ewma");
	// a fresh instance is built per run, so no state leaks across cells.
	Policies []string
	// Planner is the base consolidation planner under every policy ("neat"
	// by default).
	Planner string
	// Machine is the power profile of every server (the HP testbed machine
	// by default).
	Machine *energy.MachineProfile
	// ServerSpec is the capacity of every server (default spec when zero).
	ServerSpec consolidation.ServerSpec
	// TickSec is the control loop's re-planning period (300 s by default).
	TickSec int64
	// ChaosScenario is the fault preset every cell is stressed under
	// ("off", "light", "heavy"; "light" by default) and ChaosSeed its seed.
	ChaosScenario string
	ChaosSeed     int64
	// Workers bounds how many simulations (a pack's oracle or a cell's
	// online run) run concurrently; 1 by default. Any value produces the
	// identical matrix.
	Workers int
}

// DefaultMatrixConfig crosses all five families (a small, fast envelope)
// with the full policy roster under light chaos — the golden-artifact grid.
func DefaultMatrixConfig() (MatrixConfig, error) {
	packs, err := FamilyPacks(trace.FamilyParams{
		Machines: 40, HorizonSec: 4 * 3600, Tasks: 300, Seed: 42,
	})
	if err != nil {
		return MatrixConfig{}, err
	}
	return MatrixConfig{
		Packs:         packs,
		Policies:      []string{"reactive", "hysteresis", "ewma"},
		ChaosScenario: "light",
		ChaosSeed:     42,
	}, nil
}

// validate rejects an empty or inconsistent grid upfront.
func (c *MatrixConfig) validate() error {
	if len(c.Packs) == 0 {
		return fmt.Errorf("scenario: matrix needs at least one pack")
	}
	seen := make(map[string]bool, len(c.Packs))
	for i, p := range c.Packs {
		if p.Name == "" {
			return fmt.Errorf("scenario: pack %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("scenario: duplicate pack name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Trace == nil {
			return fmt.Errorf("scenario: pack %q has no trace", p.Name)
		}
		if err := p.Trace.Validate(); err != nil {
			return fmt.Errorf("scenario: pack %q: %w", p.Name, err)
		}
	}
	if len(c.Policies) == 0 {
		return fmt.Errorf("scenario: matrix needs at least one policy")
	}
	return nil
}

// policyFor builds a fresh online policy instance by name over a fresh base
// planner — per run, because the bundled policies hold forecasting state.
func (c *MatrixConfig) policyFor(name string) (autopilot.Policy, error) {
	plannerName := c.Planner
	if plannerName == "" {
		plannerName = "neat"
	}
	base, err := consolidation.PolicyByName(plannerName)
	if err != nil {
		return nil, err
	}
	var valid []string
	for _, p := range autopilot.Policies(base) {
		if p.Name() == name {
			return p, nil
		}
		valid = append(valid, p.Name())
	}
	return nil, fmt.Errorf("scenario: unknown policy %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Cell is one matrix entry: one pack replayed under one policy.
type Cell struct {
	// Scenario is the pack name, Policy the online policy name.
	Scenario string
	Policy   string
	// Report is the full chaos run: fault-free twin, oracle bounds, faulted
	// run and the resilience metrics derived from them.
	Report chaos.Report
}

// Matrix is the full grid, in grid order (packs outermost, then policies).
type Matrix struct {
	Cells []Cell
	// ChaosScenario and ChaosSeed echo the fault preset the grid ran under.
	ChaosScenario string
	ChaosSeed     int64
}

// runOracle is the oracle half of a chaos report, a variable so tests can
// count the oracle runs.
var runOracle = autopilot.RunOracle

// Run executes the policy×scenario grid on Workers goroutines. A cell's
// report pairs its own online runs with oracles that depend on the pack but
// not on the policy, so each pack's fault-free and faulted oracles run once
// and are shared by its cells; the report is the one autopilot.RunChaos
// gives for the cell. Cells land in grid order regardless of scheduling,
// every run builds its own policy, and the result is a pure function of the
// config — the same grid is bit-identical across runs and worker counts.
func Run(cfg MatrixConfig) (*Matrix, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	chaosName := cfg.ChaosScenario
	if chaosName == "" {
		chaosName = "light"
	}
	machine := cfg.Machine
	if machine == nil {
		machine = energy.Profiles()[0]
	}
	spec := cfg.ServerSpec
	if spec == (consolidation.ServerSpec{}) {
		spec = consolidation.DefaultServerSpec()
	}
	tick := cfg.TickSec
	if tick == 0 {
		tick = 300
	}

	m := &Matrix{
		Cells:         make([]Cell, 0, len(cfg.Packs)*len(cfg.Policies)),
		ChaosScenario: chaosName,
		ChaosSeed:     cfg.ChaosSeed,
	}
	for _, pack := range cfg.Packs {
		for _, polName := range cfg.Policies {
			m.Cells = append(m.Cells, Cell{Scenario: pack.Name, Policy: polName})
		}
	}
	// Pre-flight every cell's policy name and every pack's fault plan so a
	// bad grid fails before any simulation work.
	for _, polName := range cfg.Policies {
		if _, err := cfg.policyFor(polName); err != nil {
			return nil, err
		}
	}
	plans := make([]*chaos.Plan, len(cfg.Packs))
	for i, pack := range cfg.Packs {
		plan, err := chaos.Scenario(chaosName, pack.Trace.HorizonSec, pack.Trace.Machines, cfg.ChaosSeed)
		if err != nil {
			return nil, err
		}
		plans[i] = plan
	}

	configFor := func(pack int, polName string, plan *chaos.Plan) (autopilot.Config, error) {
		policy, err := cfg.policyFor(polName)
		if err != nil {
			return autopilot.Config{}, err
		}
		return autopilot.Config{
			Trace:      cfg.Packs[pack].Trace,
			Policy:     policy,
			Machine:    machine,
			ServerSpec: spec,
			TickSec:    tick,
			Chaos:      plan,
		}, nil
	}
	// The tasks: per pack the fault-free and faulted oracles (queued first,
	// as they are the longest), then per cell the fault-free and faulted
	// online runs. An empty plan skips the faulted half; its report reuses
	// the fault-free twin, as RunChaos does.
	ffOracle := make([]dcsim.Result, len(cfg.Packs))
	fOracle := make([]dcsim.Result, len(cfg.Packs))
	ffOnline := make([]autopilot.Result, len(m.Cells))
	fOnline := make([]autopilot.Result, len(m.Cells))
	var tasks []func() error
	oracleTask := func(pack int, plan *chaos.Plan, dst *dcsim.Result) {
		tasks = append(tasks, func() error {
			// The oracle reads the policy only for its base planner.
			c, err := configFor(pack, cfg.Policies[0], plan)
			if err == nil {
				*dst, err = runOracle(c)
			}
			if err != nil {
				return fmt.Errorf("scenario: pack %s: oracle: %w", cfg.Packs[pack].Name, err)
			}
			return nil
		})
	}
	onlineTask := func(cell int, plan *chaos.Plan, dst *autopilot.Result) {
		tasks = append(tasks, func() error {
			c, err := configFor(cell/len(cfg.Policies), m.Cells[cell].Policy, plan)
			if err == nil {
				*dst, err = autopilot.RunOnline(c)
			}
			if err != nil {
				return fmt.Errorf("scenario: cell %s/%s: %w", m.Cells[cell].Scenario, m.Cells[cell].Policy, err)
			}
			return nil
		})
	}
	for i, plan := range plans {
		oracleTask(i, nil, &ffOracle[i])
		if !plan.Empty() {
			oracleTask(i, plan, &fOracle[i])
		}
	}
	for i := range m.Cells {
		plan := plans[i/len(cfg.Policies)]
		onlineTask(i, nil, &ffOnline[i])
		if !plan.Empty() {
			onlineTask(i, plan, &fOnline[i])
		}
	}
	if err := runTasks(tasks, cfg.Workers); err != nil {
		return nil, err
	}

	for i := range m.Cells {
		pack := i / len(cfg.Policies)
		ff := autopilot.NewReport(ffOnline[i], ffOracle[pack])
		faulted := ff
		if !plans[pack].Empty() {
			faulted = autopilot.NewReport(fOnline[i], fOracle[pack])
		}
		m.Cells[i].Report = autopilot.NewChaosReport(plans[pack], ff, faulted)
	}
	return m, nil
}

// runTasks runs the tasks on up to workers goroutines and returns the first
// error in task order.
func runTasks(tasks []func() error, workers int) error {
	if workers < 1 {
		workers = 1
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	errs := make([]error, len(tasks))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = tasks[i]()
			}
		}()
	}
	for i := range tasks {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Cell returns one matrix entry by scenario and policy name.
func (m *Matrix) Cell(scenario, policy string) (Cell, bool) {
	for _, c := range m.Cells {
		if c.Scenario == scenario && c.Policy == policy {
			return c, true
		}
	}
	return Cell{}, false
}

// Render formats the matrix as the golden artifact: one row per cell with
// the offline oracle bound, the fault-free online saving, the regret between
// them, the faulted saving, and the resilience metrics. Pure function of the
// matrix, so a fixed config reproduces it bit for bit.
func (m *Matrix) Render() string {
	t := metrics.NewTable(
		fmt.Sprintf("Policy × scenario matrix — %q chaos, seed %d", m.ChaosScenario, m.ChaosSeed),
		"scenario", "policy", "oracle-%", "online-%", "regret-%", "faulted-%", "retained-%", "resil-regret-%", "slo", "wakes")
	for _, c := range m.Cells {
		r := c.Report
		t.AddRow(c.Scenario, c.Policy,
			metrics.FormatFloat(r.OracleSavingPercent),
			metrics.FormatFloat(r.FaultFreeSavingPercent),
			metrics.FormatFloat(r.OracleSavingPercent-r.FaultFreeSavingPercent),
			metrics.FormatFloat(r.SavingPercent),
			metrics.FormatFloat(r.SavingsRetainedPercent),
			metrics.FormatFloat(r.ResilienceRegretPercent),
			fmt.Sprintf("%d", r.SLOViolations),
			fmt.Sprintf("%d", r.EmergencyWakes))
	}
	return t.String()
}
