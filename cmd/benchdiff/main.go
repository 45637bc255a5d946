// Command benchdiff is the repository's benchmark regression gate. It
// compares two collections of Go benchmark output — the committed
// BENCH_fleet.txt baseline and a fresh collection of the same gated set —
// and fails when the new one regresses. Both are produced by
//
//	go test -run '^$' -bench '<gated set>' -benchmem -count 20 -benchtime 150ms -cpu 4 <packages>
//
// (the exact command is in the README). Rows are matched by benchmark name
// with the -N GOMAXPROCS suffix stripped, and every rule works on a row's
// samples, so the noise allowance comes from the measurement itself:
//
//   - GOMAXPROCS: collections measured at different GOMAXPROCS fail the
//     diff. Allocation counts move with it (at 4 rather than 2,
//     BenchmarkScenarioMatrix makes ~45 more allocations per op), so the
//     collection command pins -cpu 4, the CI runner's width, on every host.
//   - allocs/op: fails when the new median exceeds the baseline's largest
//     sample. A row whose baseline samples all agree (the zero-allocation
//     fast paths) fails on any growth; a row whose count jitters by a few
//     allocations between runs gets exactly its observed jitter as slack.
//     Resampling the measured jitter puts the chance that identical code
//     fails this rule somewhere at ~4% per diff with ten samples per row
//     and ~0.06% with twenty, hence -count 20.
//   - ns/op: fails when the new median is slower than the baseline median
//     by more than -max-ns-regress and also by more than the baseline's
//     interquartile range. The interquartile range only sees noise within
//     one collection; between back-to-back collections of identical code on
//     a shared 2-vCPU host a row's median moved by up to 45%, which sets the
//     default of 50%. Wall clock is only comparable on the same hardware,
//     so this rule is skipped, with a note, when the collections' "cpu:"
//     headers differ.
//   - a baseline row missing from the new collection fails; a new row with
//     no baseline is reported and skipped.
//   - -min-speedup: the new collection's BenchmarkFleetWorkloads median at
//     workers=4 must beat workers=1 by this factor. Goroutines cannot
//     express 4-way parallelism with fewer Ps, so the floor is enforced
//     only at GOMAXPROCS >= 4 and logged as skipped below that.
//
// Usage:
//
//	benchdiff -new /tmp/bench.txt
//	benchdiff -old BENCH_fleet.txt -new /tmp/bench.txt -min-speedup 1.5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// defaultMaxNsRegress is the -max-ns-regress default: above the
// between-collection drift of identical code measured on a shared host.
const defaultMaxNsRegress = 0.5

func main() {
	oldPath := flag.String("old", "BENCH_fleet.txt", "baseline collection (the committed file)")
	newPath := flag.String("new", "", "fresh collection to compare against the baseline")
	maxNsRegress := flag.Float64("max-ns-regress", defaultMaxNsRegress,
		"fail when a row's ns/op median slows by more than this fraction and by more than the baseline's interquartile range (only on the same cpu)")
	minSpeedup := flag.Float64("min-speedup", 0,
		"fail unless FleetWorkloads workers=4 beats workers=1 by this factor in the new collection (0 disables; skipped below GOMAXPROCS 4)")
	flag.Parse()

	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	oldC, err := load(*oldPath)
	var newC *collection
	if err == nil {
		newC, err = load(*newPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if !diff(os.Stdout, oldC, newC, *maxNsRegress, *minSpeedup) {
		os.Exit(1)
	}
}

// row holds one benchmark's samples, one per -count repetition.
type row struct {
	pkg        string
	ns, allocs []float64
}

// collection is one parsed benchmark output file.
type collection struct {
	procs int    // GOMAXPROCS, from the -N name suffix (1 when absent)
	cpu   string // the "cpu:" header: the hardware ns/op was measured on
	names []string
	rows  map[string]*row
}

// load parses the benchmark output file at path.
func load(path string) (*collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// parse reads Go benchmark text format: "pkg:" and "cpu:" headers and
// result lines of the form "BenchmarkName-N  iterations  value unit ...".
// Other lines (PASS, ok, logs) are skipped; custom metrics are ignored.
func parse(r io.Reader) (*collection, error) {
	c := &collection{rows: make(map[string]*row)}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = p
			continue
		}
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			c.cpu = cpu
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		name, procs := fields[0], 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		if len(c.names) == 0 {
			c.procs = procs
		} else if procs != c.procs {
			return nil, fmt.Errorf("%s measured at GOMAXPROCS %d, earlier rows at %d", name, procs, c.procs)
		}
		rw := c.rows[name]
		if rw == nil {
			rw = &row{pkg: pkg}
			c.rows[name] = rw
			c.names = append(c.names, name)
		} else if rw.pkg != pkg {
			return nil, fmt.Errorf("%s is defined in both %s and %s", name, rw.pkg, pkg)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				rw.ns = append(rw.ns, v)
			case "allocs/op":
				rw.allocs = append(rw.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(c.names) == 0 {
		return nil, fmt.Errorf("no benchmark results")
	}
	return c, nil
}

// stats summarises samples as median, interquartile range and maximum.
type stats struct{ med, iqr, max float64 }

func summarize(samples []float64) stats {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return stats{
		med: metrics.Percentile(s, 0.5),
		iqr: metrics.Percentile(s, 0.75) - metrics.Percentile(s, 0.25),
		max: metrics.Percentile(s, 1),
	}
}

// diff applies the gate's rules to every baseline row, printing one verdict
// per row to out, and reports whether the new collection passes.
func diff(out io.Writer, oldC, newC *collection, maxNsRegress, minSpeedup float64) bool {
	if oldC.procs != newC.procs {
		fmt.Fprintf(out, "FAIL  baseline measured at GOMAXPROCS=%d, new at %d: allocation counts are not comparable (collect with -cpu %d)\n",
			oldC.procs, newC.procs, oldC.procs)
		return false
	}
	compareNs := oldC.cpu == newC.cpu
	if !compareNs {
		fmt.Fprintf(out, "note: baseline measured on %q, new on %q — ns/op not comparable, checking allocations only\n",
			oldC.cpu, newC.cpu)
	}
	pass := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(out, "FAIL  "+format+"\n", args...)
		pass = false
	}
	for _, name := range oldC.names {
		o, n := oldC.rows[name], newC.rows[name]
		if n == nil {
			fail("%s: missing from the new collection", name)
			continue
		}
		oa, na := summarize(o.allocs), summarize(n.allocs)
		if len(o.allocs) > 0 && len(n.allocs) == 0 {
			fail("%s: no allocs/op in the new collection (collect with -benchmem)", name)
			continue
		}
		if na.med > oa.max {
			fail("%s: allocs/op median %.1f exceeds the baseline maximum %.0f", name, na.med, oa.max)
			continue
		}
		on, nn := summarize(o.ns), summarize(n.ns)
		if d := nn.med - on.med; compareNs && d > maxNsRegress*on.med && d > on.iqr {
			fail("%s: ns/op median %.0f -> %.0f (+%.1f%%; floor %.0f%% and baseline IQR %.0f)",
				name, on.med, nn.med, d/on.med*100, maxNsRegress*100, on.iqr)
			continue
		}
		fmt.Fprintf(out, "ok    %s: ns/op %.0f -> %.0f, allocs/op %.0f (max %.0f) -> %.0f\n",
			name, on.med, nn.med, oa.med, oa.max, na.med)
	}
	for _, name := range newC.names {
		if oldC.rows[name] == nil {
			fmt.Fprintf(out, "skip  %s: no baseline row\n", name)
		}
	}
	if minSpeedup > 0 {
		const w1, w4 = "BenchmarkFleetWorkloads/workers=1", "BenchmarkFleetWorkloads/workers=4"
		switch r1, r4 := newC.rows[w1], newC.rows[w4]; {
		case newC.procs < 4:
			fmt.Fprintf(out, "skip  min-speedup %.2fx: GOMAXPROCS=%d < 4\n", minSpeedup, newC.procs)
		case r1 == nil || r4 == nil:
			fail("min-speedup %.2fx: %s and %s are needed", minSpeedup, w1, w4)
		default:
			if s := summarize(r1.ns).med / summarize(r4.ns).med; s < minSpeedup {
				fail("FleetWorkloads speedup %.2fx (workers=4 vs 1) below the %.2fx floor", s, minSpeedup)
			} else {
				fmt.Fprintf(out, "ok    FleetWorkloads speedup %.2fx (workers=4 vs 1), floor %.2fx\n", s, minSpeedup)
			}
		}
	}
	if pass {
		fmt.Fprintf(out, "benchdiff: %d rows compared, no regressions\n", len(oldC.names))
	}
	return pass
}
