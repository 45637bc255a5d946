// Command onlinesim runs the online autonomic control plane over a synthetic
// datacenter trace and reports the regret against the offline dcsim oracle:
// how much of the paper's consolidation savings survive causal, online
// decision-making.
//
// The loop consumes the trace's streaming arrival feed (admission + placement
// at each arrival, periodic re-planning on a tick) under one of the bundled
// online policies — reactive threshold, hysteresis watermarks, or predictive
// EWMA forecasting — and every run prints the costed online saving side by
// side with the oracle's on the same trace, planner, machine and period.
//
// Usage:
//
//	onlinesim                                  # all three policies, zombiestack planner
//	onlinesim -policy hysteresis               # one policy, full regret report
//	onlinesim -planner oasis -machine dell     # different planner / power profile
//	onlinesim -tick 600 -hours 12 -seed 7      # control loop and trace knobs
//	onlinesim -family flashcrowd               # a workload-family scenario
//	onlinesim -trace cluster.csv.gz            # replay an imported trace file
//	onlinesim -execute -racks 25 -servers 8    # mirror decisions onto a live fleet
//	onlinesim -chaos light                     # resilience under a fault schedule
//	onlinesim -chaos all -chaos-seed 7         # off/light/heavy severity sweep
//	onlinesim -obs                             # append the obs dump: metrics
//	                                           #   snapshot + NDJSON event trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/acpi"
	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/cliflag"
	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	machines := flag.Int("machines", 200, "servers in the simulated fleet")
	tasks := flag.Int("tasks", 3000, "tasks in the generated trace")
	hours := flag.Float64("hours", 24, "trace horizon in hours")
	seed := flag.Int64("seed", 42, "trace generator seed (the report is bit-reproducible per seed)")
	modified := flag.Bool("modified", false, "use the paper's memory-heavy modified traces")
	family := flag.String("family", "", "generate the trace from a workload family instead: "+strings.Join(trace.FamilyNames(), ", "))
	traceFile := flag.String("trace", "", "replay a .csv/.csv.gz trace file instead of generating one (fleet size and horizon are derived; streamed record-at-a-time)")
	tick := flag.Int64("tick", 300, "re-planning tick of the online loop in seconds")
	policy := flag.String("policy", "all", "online policy: reactive, hysteresis, ewma or all")
	planner := flag.String("planner", "zombiestack", "base consolidation planner: neat, oasis or zombiestack")
	machine := flag.String("machine", "hp", "machine power profile: hp or dell")
	execute := flag.Bool("execute", false, "mirror every decision onto a live multi-rack fleet (real ACPI transitions)")
	racks := flag.Int("racks", 25, "racks of the live fleet (with -execute; racks*servers must equal -machines)")
	servers := flag.Int("servers", 8, "servers per rack of the live fleet (with -execute)")
	memGiB := flag.Int("mem-gib", 1, "memory per live-fleet server in GiB (with -execute; every Sz entry delegates this much real buffer memory, so keep it small)")
	chaosMode := flag.String("chaos", "", "fault-injection scenario: off, light, heavy or all (empty disables the chaos axis)")
	chaosSeed := flag.Int64("chaos-seed", 42, "fault-schedule seed (with -chaos; the report is bit-reproducible per seed)")
	obsOn := flag.Bool("obs", false, "attach the observability layer and append its dump: metrics snapshot + deterministic NDJSON event trace")
	flag.Parse()

	if err := run(os.Stdout, *machines, *tasks, *hours, *seed, *modified, *family, *traceFile, *tick, *policy, *planner, *machine, *execute, *racks, *servers, *memGiB, *chaosMode, *chaosSeed, *obsOn); err != nil {
		fmt.Fprintln(os.Stderr, "onlinesim:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, machines, tasks int, hours float64, seed int64, modified bool, family, traceFile string, tick int64, policy, planner, machine string, execute bool, racks, servers, memGiB int, chaosMode string, chaosSeed int64, obsOn bool) error {
	// Upfront flag validation with the valid ranges (shared helpers, the
	// same messages as fleetsim/fleetload), so a bad invocation fails
	// before any simulation state is built.
	if err := cliflag.FirstError(
		cliflag.PositiveInt("-machines", machines),
		cliflag.PositiveInt("-tasks", tasks),
		cliflag.PositiveFloat("-hours", hours),
		cliflag.PositiveInt64("-tick", tick, "second"),
	); err != nil {
		return err
	}
	if execute {
		if err := cliflag.FirstError(
			cliflag.PositiveInt("-racks", racks),
			cliflag.PositiveInt("-servers", servers),
			cliflag.PositiveInt("-mem-gib", memGiB),
		); err != nil {
			return err
		}
	}
	if family != "" && traceFile != "" {
		return fmt.Errorf("-family and -trace are mutually exclusive")
	}
	if modified && (family != "" || traceFile != "") {
		return fmt.Errorf("-modified applies to the built-in generator only; drop it with -family/-trace")
	}
	var chaosScenarios []string
	switch chaosMode {
	case "":
		// Chaos axis disabled.
	case "all":
		chaosScenarios = chaos.ScenarioNames()
	case "off", "light", "heavy":
		chaosScenarios = []string{chaosMode}
	default:
		return fmt.Errorf("unknown -chaos %q (valid: off, light, heavy, all)", chaosMode)
	}
	if len(chaosScenarios) > 0 && execute {
		return fmt.Errorf("-chaos runs on the abstract ledger; drop -execute (live-fleet faults go through the fleet fault surface)")
	}
	base, err := consolidation.PolicyByName(planner)
	if err != nil {
		return err
	}
	var profile *energy.MachineProfile
	switch strings.ToLower(machine) {
	case "hp":
		profile = energy.HPProfile()
	case "dell":
		profile = energy.DellProfile()
	default:
		return fmt.Errorf("unknown -machine %q (valid: hp, dell)", machine)
	}
	var policies []autopilot.Policy
	switch policy {
	case "all":
		policies = autopilot.Policies(base)
	case "reactive":
		policies = []autopilot.Policy{autopilot.NewReactive(base)}
	case "hysteresis":
		policies = []autopilot.Policy{autopilot.NewHysteresis(base)}
	case "ewma":
		policies = []autopilot.Policy{autopilot.NewPredictiveEWMA(base)}
	default:
		return fmt.Errorf("unknown -policy %q (valid: reactive, hysteresis, ewma, all)", policy)
	}

	var tr *trace.Trace
	switch {
	case family != "":
		tr, err = trace.GenerateFamily(family, trace.FamilyParams{
			Machines: machines, HorizonSec: int64(hours * 3600), Tasks: tasks, Seed: seed,
		})
	case traceFile != "":
		// Streams the file record-at-a-time (gzip sniffed); fleet size and
		// horizon are derived from the tasks themselves.
		tr, err = trace.ImportFile(traceFile, trace.ImportOptions{})
	default:
		gc := trace.DefaultConfig()
		if modified {
			gc = trace.ModifiedConfig()
		}
		gc.Machines = machines
		gc.Tasks = tasks
		gc.HorizonSec = int64(hours * 3600)
		gc.Seed = seed
		tr, err = trace.Generate(gc)
	}
	if err != nil {
		return err
	}
	if execute && racks*servers != tr.Machines {
		return fmt.Errorf("-racks %d x -servers %d = %d servers, but the trace fleet has %d machines",
			racks, servers, racks*servers, tr.Machines)
	}
	fmt.Fprintf(out, "Trace %s: %d machines, %d tasks over %.1f h (seed %d). Online tick %d s, planner %s, %s profile.\n\n",
		tr.Name, tr.Machines, len(tr.Tasks), float64(tr.HorizonSec)/3600, seed, tick, base.Name(), profile.Name)

	cfg := autopilot.Config{
		Trace:      tr,
		Machine:    profile,
		ServerSpec: consolidation.DefaultServerSpec(),
		TickSec:    tick,
	}
	// The loop stamps every event with its own simulated clock, so the -obs
	// dump is byte-identical run to run for a fixed invocation. With several
	// policies the runs share the bundle in policy order.
	var o *obs.Obs
	if obsOn {
		o = obs.New(obs.Options{TraceCapacity: 8192})
		cfg.Obs = o
	}
	if len(chaosScenarios) > 0 {
		if err := runChaos(out, cfg, policies, chaosScenarios, chaosSeed); err != nil {
			return err
		}
		return dumpObs(out, o)
	}
	var reports []autopilot.Report
	if execute {
		// Each policy run needs its own live fleet: the executor replays real
		// ACPI transitions and the ledger is cumulative.
		fmt.Fprintf(out, "Executing against a live %dx%d fleet per policy.\n\n", racks, servers)
		for _, pol := range policies {
			c := cfg
			c.Policy = pol
			// The live fleet only mirrors postures and integrates energy — no
			// VMs are placed on it — but every Sz entry delegates the
			// server's free memory as real RDMA buffer allocations, so the
			// boards stay small (-mem-gib) to keep posture churn cheap.
			board := acpi.DefaultBoardSpec()
			board.MemoryBytes = uint64(memGiB) << 30
			f, err := fleet.New(fleet.Config{Racks: racks, Rack: core.Config{Servers: servers, Board: board}, Workers: 1})
			if err != nil {
				return err
			}
			exec := autopilot.NewFleetExecutor(f)
			c.Executor = exec
			rep, err := autopilot.Regret(c)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s: live fleet ledger %.0f J after the run.\n", pol.Name(), exec.EnergyJoules())
			reports = append(reports, rep)
		}
		fmt.Fprintln(out)
	} else {
		// Without live fleets the policies share one oracle run.
		var err error
		if reports, err = autopilot.CompareOnline(cfg, policies); err != nil {
			return err
		}
	}

	if len(reports) == 1 {
		fmt.Fprintln(out, reports[0].Render())
		return dumpObs(out, o)
	}
	fmt.Fprintln(out, autopilot.RenderComparison(reports))
	best := reports[0]
	for _, r := range reports[1:] {
		if r.Online.SavingPercent > best.Online.SavingPercent {
			best = r
		}
	}
	fmt.Fprintf(out, "Best online policy: %s at %.2f%% saving, %.2f points of regret behind the offline oracle (%.2f%%).\n",
		best.Policy, best.Online.SavingPercent, best.RegretPercent, best.Oracle.SavingPercent)
	return dumpObs(out, o)
}

// dumpObs appends the -obs report; a nil bundle (obs off) writes nothing.
func dumpObs(out io.Writer, o *obs.Obs) error {
	if o == nil {
		return nil
	}
	fmt.Fprintln(out)
	return o.Dump(out)
}

// runChaos is the -chaos axis: every selected policy replays under every
// selected fault scenario, and the severity comparison is printed per
// policy (plus the full report when a single scenario was asked for).
func runChaos(out io.Writer, cfg autopilot.Config, policies []autopilot.Policy, scenarios []string, chaosSeed int64) error {
	plans := make([]*chaos.Plan, 0, len(scenarios))
	for _, name := range scenarios {
		plan, err := chaos.Scenario(name, cfg.Trace.HorizonSec, cfg.Trace.Machines, chaosSeed)
		if err != nil {
			return err
		}
		plans = append(plans, plan)
	}
	// With -obs, the fault schedules go into the trace up front so the export
	// shows the plan next to the runtime fault events the loop emits.
	for _, plan := range plans {
		plan.EmitSchedule(cfg.Obs.Tracer())
	}
	fmt.Fprintf(out, "Chaos axis: %s (fault seed %d).\n\n", strings.Join(scenarios, ", "), chaosSeed)
	for _, pol := range policies {
		c := cfg
		c.Policy = pol
		reports, err := autopilot.CompareChaos(c, plans)
		if err != nil {
			return err
		}
		if len(reports) == 1 {
			fmt.Fprintln(out, reports[0].Render())
			continue
		}
		fmt.Fprintln(out, chaos.RenderComparison(reports))
	}
	return nil
}
