package autopilot

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/metrics"
)

// Report is the regret report of one online run: the online policy's costed
// result side by side with the offline dcsim oracle on the same trace,
// planner, machine, hardware spec and period. Regret is the saving the
// online policy leaves on the table for not knowing the future.
type Report struct {
	Trace   string
	Machine string
	Planner string
	Policy  string
	TickSec int64
	// Online is the control loop's result; Oracle the offline bound
	// (dcsim.Oracle: transition costs forced on).
	Online Result
	Oracle dcsim.Result
	// RegretPercent is Oracle.SavingPercent - Online.SavingPercent, in
	// percentage points (>= 0 whenever the oracle bound holds).
	RegretPercent float64
}

// Regret runs the online control loop and the offline oracle on the same
// configuration and returns the comparison. The oracle replays the identical
// trace with the identical planner, machine, server spec, consolidation
// period and transition-cost model — the only difference is knowledge: the
// oracle plans each epoch with the epoch's whole population (arrivals
// included), the online loop only ever sees the past. A chaos plan on the
// config is applied to BOTH sides: each half perturbs the trace the same
// way, the online loop injects the faults as events, and the oracle replays
// under the same schedule through dcsim's degraded-capacity pricing — the
// apples-to-apples resilience regret.
func Regret(cfg Config) (Report, error) {
	online, err := RunOnline(cfg)
	if err != nil {
		return Report{}, err
	}
	oracle, err := RunOracle(cfg)
	if err != nil {
		return Report{}, err
	}
	return NewReport(online, oracle), nil
}

// prepare validates the configuration, fills its defaults and, under a
// non-empty chaos plan, swaps in the plan's perturbed trace — the
// preparation both halves of a regret comparison share.
func prepare(cfg Config) (Config, error) {
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	cfg.applyDefaults()
	if !cfg.Chaos.Empty() {
		cfg.Trace = cfg.Chaos.PerturbTrace(cfg.Trace)
	}
	return cfg, nil
}

// RunOnline is the online half of Regret: the control loop on the prepared
// configuration (trace perturbed by the chaos plan, if any).
func RunOnline(cfg Config) (Result, error) {
	cfg, err := prepare(cfg)
	if err != nil {
		return Result{}, err
	}
	return Run(cfg)
}

// RunOracle is the offline half of Regret: dcsim.Oracle on the prepared
// configuration. It reads the policy only for its base planner, so every
// online policy over the same planner shares one oracle — callers replaying
// several policies on one trace can run it once and pair it with each
// policy's RunOnline through NewReport.
func RunOracle(cfg Config) (dcsim.Result, error) {
	cfg, err := prepare(cfg)
	if err != nil {
		return dcsim.Result{}, err
	}
	return dcsim.Oracle(dcsim.Config{
		Trace:                     cfg.Trace,
		Policy:                    cfg.Policy.Planner(),
		Machine:                   cfg.Machine,
		ServerSpec:                cfg.ServerSpec,
		ConsolidationPeriodSec:    cfg.TickSec,
		OasisMemoryServerFraction: cfg.OasisMemoryServerFraction,
		Transitions:               cfg.Transitions,
		Workers:                   cfg.Workers,
		Chaos:                     cfg.Chaos,
	})
}

// NewReport pairs an online result with the oracle of the same prepared
// configuration. The report's labels come from the online result, which
// records the policy, planner, trace, machine and tick it ran with.
func NewReport(online Result, oracle dcsim.Result) Report {
	return Report{
		Trace:         online.Trace,
		Machine:       online.Machine,
		Planner:       online.Planner,
		Policy:        online.Policy,
		TickSec:       online.TickSec,
		Online:        online,
		Oracle:        oracle,
		RegretPercent: oracle.SavingPercent - online.SavingPercent,
	}
}

// CompareOnline runs the regret comparison for every given policy on the
// same configuration, in order. Each policy must be a fresh instance (the
// bundled ones hold forecasting state) — Policies supplies a matching set.
// The oracle runs once per distinct base planner instance and is shared by
// every policy over it (Policies gives the whole set one planner), since it
// depends on the planner but not on the online policy.
func CompareOnline(cfg Config, policies []Policy) ([]Report, error) {
	oracles := make(map[consolidation.Policy]dcsim.Result)
	reports := make([]Report, 0, len(policies))
	for _, pol := range policies {
		c := cfg
		c.Policy = pol
		online, err := RunOnline(c)
		if err != nil {
			return nil, fmt.Errorf("autopilot: policy %q: %w", pol.Name(), err)
		}
		// A planner of a non-comparable type cannot key the map; it gets
		// its own oracle.
		planner := pol.Planner()
		shareable := reflect.TypeOf(planner).Comparable()
		oracle, ok := dcsim.Result{}, false
		if shareable {
			oracle, ok = oracles[planner]
		}
		if !ok {
			if oracle, err = RunOracle(c); err != nil {
				return nil, fmt.Errorf("autopilot: policy %q: %w", pol.Name(), err)
			}
			if shareable {
				oracles[planner] = oracle
			}
		}
		reports = append(reports, NewReport(online, oracle))
	}
	return reports, nil
}

// Render formats the report as an aligned two-row table (online vs oracle)
// plus the regret line. The output is a pure function of the report, so a
// fixed trace seed reproduces it bit for bit.
func (r Report) Render() string {
	var b strings.Builder
	t := metrics.NewTable(
		fmt.Sprintf("Regret — %s/%s on %s (%s, tick %ds)", r.Policy, r.Planner, r.Trace, r.Machine, r.TickSec),
		"side", "saving-%", "energy-j", "transition-j", "acpi-events", "migrations", "mean-active")
	t.AddRow("online",
		metrics.FormatFloat(r.Online.SavingPercent),
		metrics.FormatFloat(r.Online.EnergyJoules),
		metrics.FormatFloat(r.Online.TransitionJoules),
		metrics.FormatFloat(float64(r.Online.StateTransitions)),
		metrics.FormatFloat(float64(r.Online.Migrations)),
		metrics.FormatFloat(r.Online.MeanActiveHosts))
	t.AddRow("oracle",
		metrics.FormatFloat(r.Oracle.SavingPercent),
		metrics.FormatFloat(r.Oracle.EnergyJoules),
		metrics.FormatFloat(r.Oracle.TransitionJoules),
		metrics.FormatFloat(float64(r.Oracle.StateTransitions)),
		metrics.FormatFloat(float64(r.Oracle.Migrations)),
		metrics.FormatFloat(r.Oracle.MeanActiveHosts))
	b.WriteString(t.String())
	fmt.Fprintf(&b, "regret: %s points of saving (ticks %d, arrivals %d, admitted %d, rejected %d, emergency wakes %d)\n",
		metrics.FormatFloat(r.RegretPercent), r.Online.Ticks, r.Online.Arrivals,
		r.Online.Admitted, r.Online.Rejected, r.Online.EmergencyWakes)
	return b.String()
}

// RenderComparison formats a set of regret reports as one table, a row per
// policy, in report order.
func RenderComparison(reports []Report) string {
	t := metrics.NewTable("Online policies vs the offline oracle",
		"policy", "planner", "online-saving-%", "oracle-saving-%", "regret-pts", "acpi-events", "oracle-events", "emergency-wakes")
	for _, r := range reports {
		t.AddRow(r.Policy, r.Planner,
			metrics.FormatFloat(r.Online.SavingPercent),
			metrics.FormatFloat(r.Oracle.SavingPercent),
			metrics.FormatFloat(r.RegretPercent),
			metrics.FormatFloat(float64(r.Online.StateTransitions)),
			metrics.FormatFloat(float64(r.Oracle.StateTransitions)),
			metrics.FormatFloat(float64(r.Online.EmergencyWakes)))
	}
	return t.String()
}
