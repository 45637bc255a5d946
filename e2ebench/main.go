// Command e2ebench is the repository's end-to-end benchmark. Each workload
// drives the program through its public entry points from one process with
// closed-loop load (at most two client goroutines or worker slots), checks
// the outputs, and prints a human-readable table followed by one JSON result
// line. With --trace 1 it instead measures the workload twice (untraced,
// then with span-recording wrappers at each layer boundary) and reports the
// per-layer table. See README.md for the workloads and metrics.
//
//	bash e2ebench/run.sh --workload live-replay --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"
)

const (
	// defaultSeed is the seed whose digests are recorded in digests.go.
	defaultSeed = 1
	// setups is how many set-ups the untraced run times for setup_s.
	setups = 5
	// memLimit is the soft Go heap limit: every gateway session registers
	// 1 GiB of real heap for its zombie, and two live sessions plus their
	// garbage would otherwise peak above 4 GB on an 8 GB host.
	memLimit = 2560 << 20
)

// workloads is the benchmark's workload registry, in presentation order.
var workloads = []*workload{liveReplay, gatewayLoad, dataplane, matrix}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: live-replay, gateway, dataplane or matrix")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "directory for the traced run's span CSV")
	flag.Parse()

	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.duration = time.Duration(*seconds) * time.Second
	o.traced = *traced == 1
	o.setups = setups
	debug.SetMemoryLimit(memLimit)

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encoding the result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
