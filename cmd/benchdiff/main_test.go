package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// text renders rows in Go's benchmark output format at the given
// GOMAXPROCS: one result line per {ns/op, allocs/op} sample.
func text(procs int, rows map[string][][2]float64) string {
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("goos: linux\npkg: repro/internal/fleet\ncpu: test-cpu\n")
	for _, name := range names {
		label := name
		if procs != 1 {
			label += fmt.Sprintf("-%d", procs)
		}
		for _, s := range rows[name] {
			fmt.Fprintf(&b, "%s\t10\t%.0f ns/op\t1.5 saving-%%\t64 B/op\t%.0f allocs/op\n", label, s[0], s[1])
		}
	}
	b.WriteString("PASS\n")
	return b.String()
}

func mustParse(t *testing.T, s string) *collection {
	t.Helper()
	c, err := parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustLoad(t *testing.T, path string) *collection {
	t.Helper()
	c, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// run diffs the two collections and returns the verdict and the report.
func run(oldC, newC *collection, minSpeedup float64) (bool, string) {
	var buf bytes.Buffer
	ok := diff(&buf, oldC, newC, defaultMaxNsRegress, minSpeedup)
	return ok, buf.String()
}

// TestParse reads sub-benchmark names containing '/' and '=', strips the
// GOMAXPROCS suffix, and skips custom metrics on the same line.
func TestParse(t *testing.T) {
	c := mustParse(t, `goos: linux
pkg: repro/internal/dcsim
cpu: Intel(R) Xeon(R) Processor
BenchmarkDCSimTransitions-2   	      12	  26586635 ns/op	      1966 migrations	        44.61 saving-%	      1408 transition-kJ	  847524 B/op	    5770 allocs/op
pkg: repro/internal/fleet
BenchmarkFleetWorkloads/workers=4-2         	      22	  16280222 ns/op	  250315 B/op	    6391 allocs/op
BenchmarkFleetWorkloads/workers=4-2         	      21	  16000000.5 ns/op	  250315 B/op	    6393 allocs/op
PASS
ok  	repro/internal/fleet	2.192s
`)
	if c.procs != 2 || c.cpu != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("procs %d on %q, want 2 on the Xeon", c.procs, c.cpu)
	}
	if want := []string{"BenchmarkDCSimTransitions", "BenchmarkFleetWorkloads/workers=4"}; fmt.Sprint(c.names) != fmt.Sprint(want) {
		t.Fatalf("names %q, want %q", c.names, want)
	}
	tr := c.rows["BenchmarkDCSimTransitions"]
	if fmt.Sprint(tr.ns, tr.allocs) != "[2.6586635e+07] [5770]" {
		t.Fatalf("transitions row %v %v", tr.ns, tr.allocs)
	}
	fw := c.rows["BenchmarkFleetWorkloads/workers=4"]
	if fmt.Sprint(fw.ns, fw.allocs) != "[1.6280222e+07 1.60000005e+07] [6391 6393]" {
		t.Fatalf("fleet row %v %v", fw.ns, fw.allocs)
	}

	// A 1-CPU host prints no suffix.
	if c := mustParse(t, "BenchmarkQuotaAllow \t100\t12 ns/op\t0 B/op\t0 allocs/op\n"); c.procs != 1 || c.names[0] != "BenchmarkQuotaAllow" {
		t.Fatalf("unsuffixed row parsed as %q at procs %d", c.names, c.procs)
	}
}

// TestDiffRejectsWrongSchema checks inputs that are not one benchmark
// collection are refused: the retired JSON trajectory, rows at mixed
// GOMAXPROCS, and one name defined in two packages.
func TestDiffRejectsWrongSchema(t *testing.T) {
	for _, in := range []string{
		`{"schema": "zombieland-bench-fleet/v3", "fleet": []}`,
		"BenchmarkA-2\t1\t5 ns/op\nBenchmarkA-4\t1\t5 ns/op\n",
		"pkg: a\nBenchmarkA-2\t1\t5 ns/op\npkg: b\nBenchmarkA-2\t1\t5 ns/op\n",
	} {
		if _, err := parse(strings.NewReader(in)); err == nil {
			t.Errorf("parse accepted %q", in)
		}
	}
}

// TestDiffPasses diffs two real back-to-back collections of identical code
// (the gated set, -count 20 -cpu 4, measured on a 2-vCPU host): the gate
// must pass, or it fails on noise.
func TestDiffPasses(t *testing.T) {
	ok, out := run(mustLoad(t, "testdata/old.txt"), mustLoad(t, "testdata/new.txt"), 0)
	if !ok || !strings.Contains(out, "no regressions") {
		t.Fatalf("identical code failed the gate:\n%s", out)
	}
}

// TestDiffFailsOnAnyAllocGrowth checks one extra allocation per op fails
// on a row whose baseline samples all agree (the quota fast path at 0).
func TestDiffFailsOnAnyAllocGrowth(t *testing.T) {
	oldC, newC := mustLoad(t, "testdata/old.txt"), mustLoad(t, "testdata/old.txt")
	q := newC.rows["BenchmarkQuotaAllow"]
	if s := summarize(oldC.rows["BenchmarkQuotaAllow"].allocs); s.max != 0 {
		t.Fatalf("fixture quota row allocates (max %v)", s.max)
	}
	for i := range q.allocs {
		q.allocs[i]++
	}
	ok, out := run(oldC, newC, 0)
	if ok || !strings.Contains(out, "FAIL  BenchmarkQuotaAllow: allocs/op median 1.0 exceeds the baseline maximum 0") {
		t.Fatalf("+1 alloc/op passed:\n%s", out)
	}
}

// TestDiffFailsOnNsRegression checks a 2x slowdown of one row fails.
func TestDiffFailsOnNsRegression(t *testing.T) {
	oldC, newC := mustLoad(t, "testdata/old.txt"), mustLoad(t, "testdata/old.txt")
	r := newC.rows["BenchmarkDCSimSequential"]
	for i := range r.ns {
		r.ns[i] *= 2
	}
	ok, out := run(oldC, newC, 0)
	if ok || !strings.Contains(out, "FAIL  BenchmarkDCSimSequential: ns/op median") {
		t.Fatalf("2x ns/op regression passed:\n%s", out)
	}
}

// TestDiffPassesJitterWithinIQR checks a median shift beyond
// -max-ns-regress but inside the baseline's interquartile range passes,
// as does an allocation count inside the baseline's observed spread.
func TestDiffPassesJitterWithinIQR(t *testing.T) {
	var base, shifted [][2]float64
	for i := 0; i < 10; i++ {
		ns := 100 + 30*float64(i) // median 235, IQR 135
		base = append(base, [2]float64{ns, 50 + float64(i%3)})
		shifted = append(shifted, [2]float64{ns + 130, 52}) // +55%
	}
	oldC := mustParse(t, text(2, map[string][][2]float64{"BenchmarkX": base}))
	ok, out := run(oldC, mustParse(t, text(2, map[string][][2]float64{"BenchmarkX": shifted})), 0)
	if !ok {
		t.Fatalf("jitter within the IQR failed:\n%s", out)
	}
	for i := range shifted {
		shifted[i][0] += 10 // +60%, beyond the IQR
	}
	if ok, out := run(oldC, mustParse(t, text(2, map[string][][2]float64{"BenchmarkX": shifted})), 0); ok {
		t.Fatalf("shift beyond the IQR passed:\n%s", out)
	}
}

// TestDiffFailsOnMissingRow checks a baseline row absent from the new
// collection fails instead of being skipped, while a new row is skipped.
func TestDiffFailsOnMissingRow(t *testing.T) {
	oldC := mustParse(t, text(2, map[string][][2]float64{"BenchmarkA": {{10, 0}}, "BenchmarkB": {{10, 0}}}))
	newC := mustParse(t, text(2, map[string][][2]float64{"BenchmarkA": {{10, 0}}, "BenchmarkC": {{10, 0}}}))
	ok, out := run(oldC, newC, 0)
	if ok || !strings.Contains(out, "FAIL  BenchmarkB: missing") || !strings.Contains(out, "skip  BenchmarkC: no baseline row") {
		t.Fatalf("missing baseline row not failed:\n%s", out)
	}
}

// TestDiffSkipsNsAcrossHardware checks collections measured on different
// CPUs only compare allocations: a big wall-clock delta passes, an
// allocation delta still fails.
func TestDiffSkipsNsAcrossHardware(t *testing.T) {
	oldC := mustParse(t, text(4, map[string][][2]float64{"BenchmarkA": {{1000, 50}}}))
	other := func(ns, allocs float64) *collection {
		in := text(4, map[string][][2]float64{"BenchmarkA": {{ns, allocs}}})
		return mustParse(t, strings.Replace(in, "cpu: test-cpu", "cpu: other-cpu", 1))
	}
	ok, out := run(oldC, other(5000, 50), 0)
	if !ok || !strings.Contains(out, "ns/op not comparable") {
		t.Fatalf("cross-hardware diff failed on wall clock:\n%s", out)
	}
	if ok, out := run(oldC, other(5000, 60), 0); ok {
		t.Fatalf("cross-hardware diff ignored an allocs/op regression:\n%s", out)
	}
}

// TestDiffFailsAcrossGOMAXPROCS checks collections at different GOMAXPROCS
// are refused: their allocation counts are not comparable.
func TestDiffFailsAcrossGOMAXPROCS(t *testing.T) {
	rows := map[string][][2]float64{"BenchmarkA": {{1000, 50}}}
	ok, out := run(mustParse(t, text(4, rows)), mustParse(t, text(2, rows)), 0)
	if ok || !strings.Contains(out, "FAIL  baseline measured at GOMAXPROCS=4, new at 2") {
		t.Fatalf("GOMAXPROCS mismatch not failed:\n%s", out)
	}
}

// TestSpeedupFloor checks the FleetWorkloads workers=4 vs 1 floor is
// enforced at GOMAXPROCS >= 4 and logged as skipped below.
func TestSpeedupFloor(t *testing.T) {
	fleet := func(procs int, w4ns float64) *collection {
		return mustParse(t, text(procs, map[string][][2]float64{
			"BenchmarkFleetWorkloads/workers=1": {{100, 5}},
			"BenchmarkFleetWorkloads/workers=4": {{w4ns, 5}},
		}))
	}
	for _, tc := range []struct {
		procs int
		w4ns  float64
		pass  bool
		want  string
	}{
		{4, 50, true, "ok    FleetWorkloads speedup 2.00x"},
		{4, 80, false, "FAIL  FleetWorkloads speedup 1.25x (workers=4 vs 1) below the 1.50x floor"},
		{2, 80, true, "skip  min-speedup 1.50x: GOMAXPROCS=2 < 4"},
	} {
		c := fleet(tc.procs, tc.w4ns)
		ok, out := run(c, c, 1.5)
		if ok != tc.pass || !strings.Contains(out, tc.want) {
			t.Errorf("procs %d, workers=4 at %v ns: pass=%v, want %v with %q:\n%s", tc.procs, tc.w4ns, ok, tc.pass, tc.want, out)
		}
	}
}
