package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// matrixPolicies, matrixChaos and matrixWorkers are the grid scenario.Run
// crosses the five families with.
var matrixPolicies = []string{"reactive", "hysteresis", "ewma"}

const (
	matrixChaos   = "light"
	matrixWorkers = 2
	// matrixPlanner is scenario.Run's default base planner.
	matrixPlanner = "neat"
)

var matrix = &workload{
	name:        "matrix",
	why:         "pure planning and pricing: autopilot ledger, dcsim oracle, chaos; no rdma",
	unit:        "cells",
	sample:      "matrix (15 cells on 2 workers)",
	digestIters: 2,
	setup:       setupMatrix,
}

// matrixSets is how many seeded family-pack sets one run cycles through.
func (o options) matrixSets() (int, trace.FamilyParams) {
	if o.tiny {
		return 1, trace.FamilyParams{Machines: 10, HorizonSec: 4 * 3600, Tasks: 100}
	}
	return 4, trace.DefaultFamilyParams()
}

type matrixInst struct {
	sets [][]scenario.Pack
}

func setupMatrix(p *phase) (instance, error) {
	n, params := p.opts.matrixSets()
	in := &matrixInst{}
	for k := 0; k < n; k++ {
		params.Seed = p.seedFor(k)
		l := p.tr.lane()
		l.begin("trace.gen")
		packs, err := scenario.FamilyPacks(params)
		l.end()
		l.close()
		if err != nil {
			return nil, err
		}
		in.sets = append(in.sets, packs)
	}
	return in, nil
}

func (in *matrixInst) iterate(p *phase, i int) {
	k := i % len(in.sets)
	packs := in.sets[k]
	cells := len(packs) * len(matrixPolicies)
	chaosSeed := p.seedFor(k)
	var m *scenario.Matrix
	var err error
	start := time.Now()
	if p.tr == nil {
		m, err = scenario.Run(scenario.MatrixConfig{
			Packs:         packs,
			Policies:      matrixPolicies,
			ChaosScenario: matrixChaos,
			ChaosSeed:     chaosSeed,
			Workers:       matrixWorkers,
		})
	} else {
		m, err = tracedMatrix(p, packs, chaosSeed)
	}
	d := time.Since(start)
	if err != nil {
		p.lost(cells, err)
		return
	}
	p.done(cells, d)
	for _, c := range m.Cells {
		if err := checkCell(c); err != nil {
			p.wrong(1, err)
		}
		r := c.Report
		p.add("scenario.arrivals", float64(r.Arrivals))
		p.add("scenario.rejected", float64(r.Rejected))
		if r.Rejected == 0 && r.SavingPercent > r.FaultFreeSavingPercent {
			p.add("scenario.faulted_gain_cells", 1)
		}
	}
	if p.digesting(i) {
		p.digestf("matrix %d\n%s\n", i, m.Render())
	}
}

// checkCell holds a matrix cell to the oracle bounds: the fault-free online
// run cannot beat the offline oracle, and the faulted run cannot beat the
// oracle replayed under the same faults and the same perturbed trace. Both
// compare savings over the same tasks, so they apply only where the online
// loop admitted every arrival. An overloaded trace (mlbatch at the default
// envelope refuses about nine in ten arrivals) saves energy by serving less;
// its cells are counted in scenario.refused_arrivals_frac instead.
//
// The faulted run is not bounded by its fault-free twin: the twin replays
// the trace without the fault plan's burst tasks, and a heuristic policy
// pushed off its trajectory by a fault sometimes lands on a cheaper one.
// Such cells are counted in scenario.faulted_gain_cells.
func checkCell(c scenario.Cell) error {
	r := c.Report
	if r.Rejected > 0 {
		return nil
	}
	if r.FaultFreeSavingPercent > r.OracleSavingPercent {
		return fmt.Errorf("cell %s/%s: online saving %.4f%% above the oracle's %.4f%%", c.Scenario, c.Policy, r.FaultFreeSavingPercent, r.OracleSavingPercent)
	}
	if r.SavingPercent > r.OracleFaultedSavingPercent {
		return fmt.Errorf("cell %s/%s: faulted saving %.4f%% above the faulted oracle's %.4f%%", c.Scenario, c.Policy, r.SavingPercent, r.OracleFaultedSavingPercent)
	}
	return nil
}

// tracedMatrix runs the same grid as scenario.Run, cell by cell on the same
// number of workers, with the planner and the policy wrapped and each
// autopilot.RunChaos call timed. The digest check proves the cells equal.
func tracedMatrix(p *phase, packs []scenario.Pack, chaosSeed int64) (*scenario.Matrix, error) {
	m := &scenario.Matrix{ChaosScenario: matrixChaos, ChaosSeed: chaosSeed}
	for _, pack := range packs {
		for _, pol := range matrixPolicies {
			m.Cells = append(m.Cells, scenario.Cell{Scenario: pack.Name, Policy: pol})
		}
	}
	errs := make([]error, len(m.Cells))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < matrixWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = tracedCell(p.tr, &m.Cells[i], packs[i/len(matrixPolicies)], chaosSeed)
			}
		}()
	}
	for i := range m.Cells {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

func tracedCell(tr *tracer, cell *scenario.Cell, pack scenario.Pack, chaosSeed int64) error {
	base, err := consolidation.PolicyByName(matrixPlanner)
	if err != nil {
		return err
	}
	l := tr.lane()
	defer l.close()
	var policy autopilot.Policy
	for _, pol := range autopilot.Policies(tracedPlanner{base, l}) {
		if pol.Name() == cell.Policy {
			policy = tracedPolicy{pol, l}
		}
	}
	if policy == nil {
		return fmt.Errorf("unknown policy %q", cell.Policy)
	}
	plan, err := chaos.Scenario(matrixChaos, pack.Trace.HorizonSec, pack.Trace.Machines, chaosSeed)
	if err != nil {
		return err
	}
	l.begin("scenario.cell")
	cell.Report, err = autopilot.RunChaos(autopilot.Config{
		Trace:      pack.Trace,
		Policy:     policy,
		Machine:    energy.Profiles()[0],
		ServerSpec: consolidation.DefaultServerSpec(),
		TickSec:    300,
	}, plan)
	l.end()
	return err
}

func (in *matrixInst) finish(p *phase) error {
	if p.tr == nil {
		return nil
	}
	agg := p.tr.aggregate()
	p.counts["autopilot.ticks"] = float64(agg["autopilot.decide"].count)
	// The oracle the cells' regret is measured against, on each pack's
	// fault-free configuration.
	for _, packs := range in.sets {
		for _, pack := range packs {
			base, err := consolidation.PolicyByName(matrixPlanner)
			if err != nil {
				return err
			}
			l := p.tr.lane()
			l.begin("dcsim.oracle")
			res, err := dcsim.Oracle(dcsim.Config{
				Trace:                     pack.Trace,
				Policy:                    base,
				Machine:                   energy.Profiles()[0],
				ServerSpec:                consolidation.DefaultServerSpec(),
				ConsolidationPeriodSec:    300,
				OasisMemoryServerFraction: 0.4,
				Transitions:               dcsim.DefaultTransitionModel(),
			})
			l.end()
			l.close()
			if err != nil {
				return err
			}
			p.add("dcsim.epochs", float64(res.Epochs))
		}
	}
	return nil
}

func (in *matrixInst) close() {}
