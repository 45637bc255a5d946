package fleet

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

// heapInuse returns the in-use heap after a full collection.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestZombieMemoryCostsHeapOnlyWhenWritten pins the host-memory contract of
// simulated zombie memory: a fleet of 28 zombies lending about 24 GiB of
// simulated DRAM (RDMA regions and a placed VM's local arena included) stays
// under a small fixed heap until data moves, and from then on the heap grows
// in proportion to the bytes written, not the bytes lent.
func TestZombieMemoryCostsHeapOnlyWhenWritten(t *testing.T) {
	base := heapInuse()
	f, err := New(testConfig(4, 8, 0)) // 32 servers of 1 GiB each
	if err != nil {
		t.Fatal(err)
	}
	for rack := 0; rack < f.Racks(); rack++ {
		for _, server := range f.Rack(rack).Servers()[1:] {
			if err := f.PushToZombie(rack, server); err != nil {
				t.Fatal(err)
			}
		}
	}
	lent := f.FreeRemoteMemory()
	if lent < 24<<30 {
		t.Fatalf("fleet lends %d MiB, want at least 24 GiB", lent>>20)
	}
	spec := vm.New("vm-heap", 1792<<20, 1536<<20)
	if _, err := f.PlaceVMs([]vm.VM{spec}, core.CreateVMOptions{}); err != nil {
		t.Fatal(err)
	}
	p, err := f.MemplaneOf(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	idle := heapInuse()
	// The bound is ~0.1% of the lent memory: registration bookkeeping only.
	const ceiling = 24 << 20
	t.Logf("idle: %d MiB lent, heap +%d KiB", lent>>20, (idle-base)>>10)
	if idle-base > ceiling {
		t.Fatalf("registering %d MiB of zombie memory took %d MiB of heap (> %d MiB)", lent>>20, (idle-base)>>20, ceiling>>20)
	}

	// Write whole pages across the VM's address space: local frames first,
	// then remote frames carved from the zombies' buffers.
	guest, err := f.Rack(0).VM(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	pages := int64(guest.Paging.Pages())
	page := make([]byte, p.PageSize())
	for i := range page {
		page[i] = byte(i) | 1
	}
	for i := int64(0); i < pages; i++ {
		if _, _, err := p.Write(i*p.PageSize(), page); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.RemoteBytesWritten == 0 || st.RemoteBytesWritten == st.BytesWritten {
		t.Fatalf("writes should land both locally and remotely: %+v", st)
	}
	written := int64(st.BytesWritten)
	grown := heapInuse() - idle
	t.Logf("wrote %d MiB (%d MiB remote), heap +%d MiB", written>>20, st.RemoteBytesWritten>>20, grown>>20)
	// Every written byte is backed once in a chunk; remote ones once more in
	// the plane's crash-recovery mirror. Allow page-table and map overhead.
	want := written + int64(st.RemoteBytesWritten)
	if grown < want*3/4 || grown > want*5/4+ceiling {
		t.Fatalf("heap grew %d MiB for %d MiB written, want about %d MiB", grown>>20, written>>20, want>>20)
	}
	// The fleet owns the regions measured above; it must outlive the last
	// snapshot or its collection would mask the growth.
	runtime.KeepAlive(f)
}
