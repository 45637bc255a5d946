package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/acpi"
	"repro/internal/autopilot"
	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// liveSize is the live-replay input size.
type liveSize struct {
	racks, servers int
	// lentMiB is what each zombie lends: the board holds it on top of the
	// host's reserved memory.
	lentMiB, bufferMiB, reservedMiB int64
	tasks                           int
	horizonSec                      int64
	// traces is how many distinct seeded traces one run cycles through.
	traces int
}

func (o options) liveSize() liveSize {
	if o.tiny {
		return liveSize{racks: 2, servers: 4, lentMiB: 8, bufferMiB: 8, reservedMiB: 64, tasks: 80, horizonSec: 4 * 3600, traces: 2}
	}
	return liveSize{racks: 5, servers: 8, lentMiB: 8, bufferMiB: 8, reservedMiB: 64, tasks: 600, horizonSec: 24 * 3600, traces: 16}
}

var liveReplay = &workload{
	name:        "live-replay",
	why:         "autopilot drives a live fleet; zombie memory registration dominates host cost",
	unit:        "ticks",
	sample:      "tick",
	digestIters: 2,
	setup:       setupLive,
}

// liveInst holds the imported traces and, for each, the same run on the
// abstract energy ledger: the live run must reproduce it exactly.
type liveInst struct {
	size   liveSize
	traces []*trace.Trace
	refs   []autopilot.Result
	// last is the most recent replay's fleet, kept for the lent-memory
	// reading after the loop.
	last *fleet.Fleet
}

// liveConfig is the replay configuration: hysteresis over the zombiestack
// planner, the paper's machine, 5-minute ticks.
func liveConfig(tr *trace.Trace, pol autopilot.Policy) autopilot.Config {
	return autopilot.Config{
		Trace:      tr,
		Policy:     pol,
		Machine:    energy.Profiles()[0],
		ServerSpec: consolidation.DefaultServerSpec(),
		TickSec:    300,
	}
}

func setupLive(p *phase) (instance, error) {
	sz := p.opts.liveSize()
	in := &liveInst{size: sz}
	machines := sz.racks * sz.servers
	for k := 0; k < sz.traces; k++ {
		l := p.tr.lane()
		l.begin("trace.gen")
		gen, err := trace.NewDiurnal().Generate(trace.FamilyParams{
			Machines: machines, HorizonSec: sz.horizonSec, Tasks: sz.tasks, Seed: p.seedFor(k),
		})
		l.end()
		if err != nil {
			return nil, err
		}
		var csv bytes.Buffer
		if err := gen.EncodeCSV(&csv, true); err != nil {
			return nil, err
		}
		l.begin("trace.import")
		tr, err := trace.Import(&csv, trace.ImportOptions{
			Name: fmt.Sprintf("diurnal-%d", k), Machines: machines, HorizonSec: sz.horizonSec,
		})
		l.end()
		l.close()
		if err != nil {
			return nil, err
		}
		p.add("trace.rows", float64(len(tr.Tasks)))
		ref, err := autopilot.Run(liveConfig(tr, autopilot.NewHysteresis(consolidation.NewZombieStack())))
		if err != nil {
			return nil, fmt.Errorf("abstract-ledger replay: %w", err)
		}
		in.traces = append(in.traces, tr)
		in.refs = append(in.refs, ref)
	}
	return in, nil
}

func (in *liveInst) newFleet() (*fleet.Fleet, error) {
	sz := in.size
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = uint64(sz.lentMiB+sz.reservedMiB) << 20
	return fleet.New(fleet.Config{
		Racks: sz.racks,
		Rack: core.Config{
			Servers:           sz.servers,
			Board:             board,
			BufferSize:        sz.bufferMiB << 20,
			HostReservedBytes: sz.reservedMiB << 20,
		},
		Workers: 1,
	})
}

func (in *liveInst) iterate(p *phase, i int) {
	k := i % len(in.traces)
	ref := in.refs[k]
	f, err := in.newFleet()
	if err != nil {
		p.lost(ref.Ticks, err)
		return
	}
	exec := autopilot.NewFleetExecutor(f)
	pol := autopilot.Policy(autopilot.NewHysteresis(consolidation.NewZombieStack()))
	cfg := liveConfig(in.traces[k], pol)
	cfg.Executor = exec

	l := p.tr.lane()
	var te *tracedExecutor
	if l != nil {
		pol = tracedPolicy{autopilot.NewHysteresis(tracedPlanner{consolidation.NewZombieStack(), l}), l}
		te = &tracedExecutor{inner: exec, l: l, states: exec.States()}
		cfg.Policy, cfg.Executor = pol, te
	}
	ticks := 0
	last := time.Now()
	cfg.OnTick = func(autopilot.TickEvent) {
		now := time.Now()
		p.done(1, now.Sub(last))
		last = now
		ticks++
	}
	l.begin("autopilot.run")
	res, err := autopilot.Run(cfg)
	l.end()
	l.close()
	in.last = f
	if err != nil {
		p.lost(ref.Ticks-ticks, err)
		return
	}
	if err := checkReplay(k, res, ref); err != nil {
		p.wrong(res.Ticks, err)
	}
	if te != nil {
		p.add("fleet.transitions", float64(te.transitions))
	}
	p.add("autopilot.ticks", float64(res.Ticks))
	if p.digesting(i) {
		p.digestf("live %d %+v %v %v\n", i, res, exec.States(), exec.EnergyJoules())
	}
}

// checkReplay requires the live-fleet replay of trace k to reproduce the
// abstract-ledger run exactly: the executor mirrors decisions, it must not
// change them.
func checkReplay(k int, live, ref autopilot.Result) error {
	if live != ref {
		return fmt.Errorf("live replay of trace %d differs from the abstract ledger: %+v vs %+v", k, live, ref)
	}
	return nil
}

func (in *liveInst) finish(p *phase) error {
	if in.last == nil {
		return nil
	}
	return p.heapPerLent(in.last.FreeRemoteMemory(), func() error {
		in.last = nil
		return nil
	})
}

func (in *liveInst) close() {}

// tracedPlanner times every Plan call of the base consolidation planner.
type tracedPlanner struct {
	consolidation.Policy
	l *lane
}

func (t tracedPlanner) Plan(vms []consolidation.VMDemand, spec consolidation.ServerSpec, total int) consolidation.FleetPlan {
	t.l.begin("consolidation.plan")
	defer t.l.end()
	return t.Policy.Plan(vms, spec, total)
}

// tracedPolicy times every Decide call of an online policy.
type tracedPolicy struct {
	autopilot.Policy
	l *lane
}

func (t tracedPolicy) Decide(obs autopilot.Observation) consolidation.FleetPlan {
	t.l.begin("autopilot.decide")
	defer t.l.end()
	return t.Policy.Decide(obs)
}

// Clone keeps the wrapper when a run asks for a fresh policy instance.
func (t tracedPolicy) Clone() autopilot.Policy {
	if c, ok := t.Policy.(interface{ Clone() autopilot.Policy }); ok {
		return tracedPolicy{c.Clone(), t.l}
	}
	return t
}

// tracedExecutor times the FleetExecutor and counts the server state
// changes each Apply makes. Its own reads run in bench.probe spans, so they
// stay out of autopilot.run's self time.
type tracedExecutor struct {
	inner       *autopilot.FleetExecutor
	l           *lane
	states      []acpi.SleepState
	transitions int
}

func (t *tracedExecutor) Servers() int { return t.inner.Servers() }

func (t *tracedExecutor) Advance(deltaSec int64) {
	t.l.begin("fleet.advance")
	t.inner.Advance(deltaSec)
	t.l.end()
}

func (t *tracedExecutor) Apply(nowSec int64, prev, next consolidation.FleetPlan) error {
	t.l.begin("fleet.apply")
	err := t.inner.Apply(nowSec, prev, next)
	t.l.end()
	t.l.begin("bench.probe")
	now := t.inner.States()
	for i := range now {
		if now[i] != t.states[i] {
			t.transitions++
		}
	}
	t.states = now
	t.l.end()
	return err
}
