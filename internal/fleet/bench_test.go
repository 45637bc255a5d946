package fleet

import (
	"fmt"
	"testing"

	"repro/internal/acpi"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workload"
)

// newBenchFleet builds the canonical fleet benchmark scenario: 4 racks of
// 4 servers, each rack pushing half its servers into Sz and hosting one
// hard-paging VM (50% local memory) per awake server, served from the
// rack's own zombie pool. The per-rack work is balanced, so the workers
// axis isolates the worker-pool scaling. It returns the fleet and the
// workload batch the benchmark replays.
func newBenchFleet(b *testing.B, workers int) (*Fleet, []WorkloadRequest) {
	b.Helper()
	const racks, servers = 4, 4
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = 1 << 30
	f, err := New(Config{
		Racks: racks,
		Rack: core.Config{
			Servers:           servers,
			Board:             board,
			BufferSize:        16 << 20,
			HostReservedBytes: 128 << 20,
		},
		Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	for ri := 0; ri < racks; ri++ {
		names := f.Rack(ri).Servers()
		for _, name := range names[len(names)/2:] {
			if err := f.PushToZombie(ri, name); err != nil {
				b.Fatal(err)
			}
		}
	}
	var specs []vm.VM
	for i := 0; i < racks*(servers-servers/2); i++ {
		specs = append(specs, vm.New(fmt.Sprintf("bench-vm-%02d", i), 1792<<20, 1536<<20))
	}
	placements, err := f.PlaceVMs(specs, core.CreateVMOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var reqs []WorkloadRequest
	for i, p := range placements {
		if p.Err != "" {
			b.Fatalf("bench placement %s: %s", p.VM, p.Err)
		}
		reqs = append(reqs, WorkloadRequest{
			VM:         p.VM,
			Kind:       workload.MicroBench,
			Iterations: 3,
			Seed:       int64(i + 1),
		})
	}
	return f, reqs
}

// BenchmarkFleetWorkloads replays the canonical paging batch over a 4-rack
// fleet at several worker-pool sizes. On a multi-core host Workers=4
// should beat Workers=1 by well over 1.5x (the results are bit-identical
// either way — see TestFleetParallelMatchesSequential); cmd/benchdiff's
// -min-speedup floor checks the ratio of the two rows.
func BenchmarkFleetWorkloads(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f, reqs := newBenchFleet(b, workers)
			// Warm up with two replays: the second replay on a fresh
			// fleet still makes ~200 one-off allocations, which inside
			// the timed loop would be divided by b.N and make allocs/op
			// follow the host's speed.
			for w := 0; w < 2; w++ {
				for _, res := range f.RunWorkloads(reqs) {
					if res.Err != "" {
						b.Fatal(res.Err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := f.RunWorkloads(reqs)
				for _, res := range results {
					if res.Err != "" {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

// BenchmarkFleetPlacement measures the batched placement path (partition,
// borrow pre-reservation, per-rack execution) at both pool sizes.
func BenchmarkFleetPlacement(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f, err := New(testConfig(4, 4, workers))
				if err != nil {
					b.Fatal(err)
				}
				for _, rack := range []int{1, 3} {
					for _, server := range f.Rack(rack).Servers()[1:] {
						if err := f.PushToZombie(rack, server); err != nil {
							b.Fatal(err)
						}
					}
				}
				var specs []vm.VM
				for v := 0; v < 6; v++ {
					specs = append(specs, vm.New(fmt.Sprintf("vm-%02d", v), 1792<<20, 1536<<20))
				}
				b.StartTimer()
				placements, err := f.PlaceVMs(specs, core.CreateVMOptions{})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range placements {
					if p.Err != "" {
						b.Fatal(p.Err)
					}
				}
			}
		})
	}
}
