package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
	// tiny shrinks every input to the tests' smoke size; its digests are
	// not compared against the recorded ones.
	tiny bool
	// setups is how many times the untraced run builds the workload before
	// measuring; setup_s is their median.
	setups int
	// spansDir receives the traced run's spans as CSV.
	spansDir string
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// unit names what throughput_per_s counts; sample what one latency
	// sample times.
	unit, sample string
	// digestIters is how many leading iterations feed the simulated-output
	// digest. Both phases of a traced run always complete them.
	digestIters int
	setup       func(p *phase) (instance, error)
}

// instance is a workload built and ready to measure.
type instance interface {
	// iterate runs iteration i and reports its units, latency samples,
	// check failures and (for leading iterations) digest input to p.
	iterate(p *phase, i int)
	// finish records the figures read after the measured loop while the
	// instance is still live (lent memory, heap per lent byte, ...).
	finish(p *phase) error
	// close releases the instance and stops everything it started.
	close()
}

// phase is one measured pass over a workload: untraced (tr nil) or traced.
type phase struct {
	opts options
	w    *workload
	tr   *tracer

	setupSecs []float64
	elapsed   time.Duration

	units     int
	attempted int
	failed    int
	notes     []string

	// lat is a uniform reservoir of the latency samples (ns), so a long
	// run's own bookkeeping stays small; samples counts them all.
	lat     []int64
	samples int
	pick    *rand.Rand
	// rates holds each iteration's units per second.
	rates []float64

	digest hash.Hash
	// counts are per-layer counters and figures the workload reports
	// directly (not derived from spans).
	counts map[string]float64

	rt0, rt1 runtime.MemStats
	liveHeap uint64
}

// latReservoir bounds the latency samples kept; a p99 over it still has
// thousands of samples beyond it.
const latReservoir = 1 << 18

func newPhase(o options, w *workload, tr *tracer) *phase {
	return &phase{
		opts: o, w: w, tr: tr,
		pick:   rand.New(rand.NewSource(o.seed)),
		digest: sha256.New(),
		counts: make(map[string]float64),
	}
}

// seedFor derives the seed of the k-th input of a run.
func (p *phase) seedFor(k int) int64 { return p.opts.seed*1000 + int64(k) }

// digesting reports whether iteration i feeds the digest.
func (p *phase) digesting(i int) bool { return i < p.w.digestIters }

// digestf writes one line of simulated output into the digest.
func (p *phase) digestf(format string, args ...any) { fmt.Fprintf(p.digest, format, args...) }

// done records units of completed work and one latency sample.
func (p *phase) done(units int, d time.Duration) {
	p.units += units
	p.attempted += units
	p.samples++
	if len(p.lat) < latReservoir {
		p.lat = append(p.lat, int64(d))
	} else if j := p.pick.Int63n(int64(p.samples)); j < latReservoir {
		p.lat[j] = int64(d)
	}
}

// lost records units that were attempted but did not complete.
func (p *phase) lost(units int, err error) {
	p.attempted += units
	p.failed += units
	p.note(err)
}

// wrong records completed units whose output failed a check.
func (p *phase) wrong(units int, err error) {
	p.failed += units
	p.note(err)
}

// checked records one standalone check (a digest comparison).
func (p *phase) checked(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		p.note(err)
	}
}

func (p *phase) note(err error) {
	if len(p.notes) < 8 {
		p.notes = append(p.notes, err.Error())
	}
}

func (p *phase) add(name string, v float64) { p.counts[name] += v }

// heapPerLent records the simulated DRAM the instance's zombies lend and
// the real heap that lending costs: the live heap with the lending system
// held, less the live heap once release has dropped it.
func (p *phase) heapPerLent(lentBytes int64, release func() error) error {
	held := liveHeap()
	if err := release(); err != nil {
		return err
	}
	freed := liveHeap()
	p.counts["memctl.lent_mib"] = float64(lentBytes) / (1 << 20)
	if lentBytes > 0 && held > freed {
		p.counts["runtime.heap_per_lent"] = float64(held-freed) / float64(lentBytes)
	}
	return nil
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measure builds the workload setups times, then runs iterations until the
// duration has passed and the digest iterations are done.
func measure(o options, w *workload, tr *tracer, d time.Duration, setups int) (*phase, error) {
	p := newPhase(o, w, tr)
	var inst instance
	for s := 0; s < setups; s++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(p)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		p.setupSecs = append(p.setupSecs, time.Since(t0).Seconds())
	}
	defer inst.close()

	runtime.GC()
	runtime.ReadMemStats(&p.rt0)
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; p.digesting(i) || time.Now().Before(deadline); i++ {
		units, t0 := p.units, time.Now()
		inst.iterate(p, i)
		if d := time.Since(t0); d > 0 {
			p.rates = append(p.rates, float64(p.units-units)/d.Seconds())
		}
	}
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&p.rt1)
	p.liveHeap = liveHeap()

	if err := inst.finish(p); err != nil {
		return nil, fmt.Errorf("%s finish: %w", w.name, err)
	}
	return p, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one invocation and prints the human-readable report to out;
// the caller prints the result line.
func run(o options, out io.Writer) (result, error) {
	w, err := lookup(o.workload)
	if err != nil {
		return result{}, err
	}
	if !o.traced {
		p, err := measure(o, w, nil, o.duration, o.setups)
		if err != nil {
			return result{}, err
		}
		checkRecordedDigest(p)
		res := endToEnd(p)
		report(out, p, res, nil)
		return res, nil
	}

	// The traced run measures the workload three times on fresh builds:
	// untraced, traced with the wrappers recording spans, and untraced again,
	// so warm-up falls on neither side. All digests must agree, and the
	// difference in unit time is the tracing overhead.
	before, err := measure(o, w, nil, o.duration/4, 1)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	p, err := measure(o, w, tr, o.duration/2, 1)
	if err != nil {
		return result{}, err
	}
	after, err := measure(o, w, nil, o.duration/4, 1)
	if err != nil {
		return result{}, err
	}
	td := hex.EncodeToString(p.digest.Sum(nil))
	for _, base := range []*phase{before, after} {
		p.attempted += base.attempted
		p.failed += base.failed
		p.notes = append(p.notes, base.notes...)
		if bd := hex.EncodeToString(base.digest.Sum(nil)); bd != td {
			p.checked(fmt.Errorf("traced digest %s differs from untraced %s", td[:16], bd[:16]))
		} else {
			p.checked(nil)
		}
	}
	checkRecordedDigest(p)
	if units := before.units + after.units; p.units > 0 && units > 0 {
		untraced := (before.elapsed + after.elapsed).Seconds() / float64(units)
		traced := p.elapsed.Seconds() / float64(p.units)
		p.counts["bench.trace_overhead_pct"] = 100 * (traced - untraced) / untraced
	}
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.csv", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	res := perLayer(p, tr.aggregate())
	report(out, p, res, []string{"spans: " + path})
	return res, nil
}

// checkRecordedDigest compares the default seed's digest at full size with
// the one recorded in digests.go.
func checkRecordedDigest(p *phase) {
	if p.opts.tiny || p.opts.seed != defaultSeed {
		return
	}
	got := hex.EncodeToString(p.digest.Sum(nil))
	want := recordedDigests[p.w.name]
	if got != want {
		p.checked(fmt.Errorf("%s digest %s for seed %d differs from the recorded %s", p.w.name, got, defaultSeed, want))
		return
	}
	p.checked(nil)
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// nearestRank returns the q-th percentile (0 < q <= 100) of sorted samples.
func nearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q/100*float64(len(sorted)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedLatencies(p *phase) []int64 {
	s := append([]int64(nil), p.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
