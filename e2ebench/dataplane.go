package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/acpi"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/memplane"
	"repro/internal/vm"
)

// dpSize is the dataplane input size.
type dpSize struct {
	servers, zombies int
	// lentMiB is what each zombie lends, in buffers of bufferMiB.
	lentMiB, bufferMiB, reservedMiB int64
	// The plane's local arena and the address span its traffic covers.
	localMiB, spanMiB int64
	batch             int // ops per iteration
	// planeOps is how many ops one VM's plane serves before the workload
	// starts a fresh fleet and plane: every one-sided verb leaves a work
	// completion on a queue nothing polls, so a plane's heap grows with
	// its op count, and a fixed op count per plane keeps peak RSS
	// independent of how fast the run goes.
	planeOps int
	// sampleEvery is how many ops the traced run lets pass between two
	// traced ones, so the spans of a ~10^6-op run stay small.
	sampleEvery int
}

func (o options) dpSize() dpSize {
	if o.tiny {
		return dpSize{servers: 3, zombies: 2, lentMiB: 8, bufferMiB: 1, reservedMiB: 64, localMiB: 1, spanMiB: 4,
			batch: 256, planeOps: 1024, sampleEvery: 4}
	}
	return dpSize{servers: 4, zombies: 3, lentMiB: 32, bufferMiB: 8, reservedMiB: 64, localMiB: 4, spanMiB: 64,
		batch: 4096, planeOps: 1 << 20, sampleEvery: 8}
}

const (
	dpPage      = 4096
	dpWriteFrac = 0.6
)

var dataplane = &workload{
	name:        "dataplane",
	why:         "the only workload moving bytes through registered zombie memory",
	unit:        "ops",
	sample:      "4 KiB read or write",
	digestIters: 4,
	setup:       setupDataplane,
}

// dpInst is a fleet whose zombies lend their DRAM, one placed VM, and a data
// plane for that VM growing into the zombies' buffers. versions shadows
// what every page must read back.
type dpInst struct {
	size     dpSize
	fleet    *fleet.Fleet
	plane    *memplane.Plane
	lent     int64
	ops      int // ops served by the current plane
	verbs    uint64
	rng      *rand.Rand
	versions []uint32
	pattern  []byte
	buf, exp []byte
	tt       *tracedTransport
}

func setupDataplane(p *phase) (instance, error) {
	sz := p.opts.dpSize()
	in := &dpInst{
		size:     sz,
		rng:      rand.New(rand.NewSource(p.seedFor(0))),
		versions: make([]uint32, sz.spanMiB<<20/dpPage),
		pattern:  make([]byte, 2*dpPage),
		buf:      make([]byte, dpPage),
		exp:      make([]byte, dpPage),
	}
	rand.New(rand.NewSource(p.seedFor(1))).Read(in.pattern)
	if err := in.open(p); err != nil {
		return nil, err
	}
	return in, nil
}

// open builds a fresh fleet, pushes its zombies, places the VM and starts
// the VM's plane with every page unwritten.
func (in *dpInst) open(p *phase) error {
	sz := in.size
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = uint64(sz.lentMiB+sz.reservedMiB) << 20
	f, err := fleet.New(fleet.Config{
		Racks: 1,
		Rack: core.Config{
			Servers:           sz.servers,
			Board:             board,
			BufferSize:        sz.bufferMiB << 20,
			HostReservedBytes: sz.reservedMiB << 20,
		},
		Workers: 1,
	})
	if err != nil {
		return err
	}
	names := f.Rack(0).Servers()
	for z := 0; z < sz.zombies; z++ {
		if err := f.PushToZombie(0, names[len(names)-1-z]); err != nil {
			return err
		}
	}
	lent := f.FreeRemoteMemory()

	l := p.tr.lane()
	l.begin("fleet.place")
	spec := vm.New("dp-vm", sz.localMiB<<20, sz.localMiB<<20)
	spec.VCPUs = 1
	placed, err := f.PlaceVMs([]vm.VM{spec}, core.CreateVMOptions{})
	l.end()
	l.close()
	if err != nil {
		return err
	}
	if placed[0].Err != "" {
		return fmt.Errorf("placing %s: %s", spec.ID, placed[0].Err)
	}
	host, err := f.Rack(0).Server(placed[0].Host)
	if err != nil {
		return err
	}
	cfg := memplane.Config{
		VM:           spec.ID,
		LocalBytes:   sz.localMiB << 20,
		AddressBytes: sz.spanMiB << 20,
		Agent:        host.Agent,
	}
	if p.tr != nil {
		in.tt = &tracedTransport{inner: memplane.InProcessTransport{}}
		cfg.Transport = in.tt
	}
	plane, err := memplane.New(cfg)
	if err != nil {
		return err
	}
	in.fleet, in.plane, in.lent, in.ops = f, plane, lent, 0
	clear(in.versions)
	return nil
}

// closePlane retires the current plane, keeping its verb count.
func (in *dpInst) closePlane() {
	in.verbs += in.fabricVerbs()
	_ = in.plane.Close() // releases the grants; the fleet is dropped with it
}

// fabricVerbs counts the one-sided verbs the current fleet has carried.
func (in *dpInst) fabricVerbs() uint64 {
	st := in.fleet.Rack(0).Fabric().Stats()
	return st.Reads + st.Writes
}

// content fills dst with what page holds after its version-th write (all
// zeros before the first).
func (in *dpInst) content(dst []byte, page int, version uint32) {
	if version == 0 {
		clear(dst)
		return
	}
	off := (page*7 + int(version)*13) % dpPage
	copy(dst, in.pattern[off:off+dpPage])
	binary.LittleEndian.PutUint64(dst[0:], uint64(page))
	binary.LittleEndian.PutUint32(dst[8:], version)
}

func (in *dpInst) iterate(p *phase, i int) {
	if in.ops >= in.size.planeOps {
		in.closePlane()
		if err := in.open(p); err != nil {
			p.lost(in.size.batch, fmt.Errorf("reopening the plane: %w", err))
			return
		}
	}
	in.ops += in.size.batch
	l := p.tr.lane()
	pages := len(in.versions)
	for op := 0; op < in.size.batch; op++ {
		page := in.rng.Intn(pages)
		write := in.rng.Float64() < dpWriteFrac
		traced := l != nil && op%in.size.sampleEvery == 0
		if traced {
			in.tt.l = l
		}
		addr := int64(page) * dpPage
		if write {
			in.versions[page]++
			in.content(in.buf, page, in.versions[page])
		}
		start := time.Now()
		var err error
		if write {
			if traced {
				l.begin("memplane.write")
			}
			_, _, err = in.plane.Write(addr, in.buf)
		} else {
			if traced {
				l.begin("memplane.read")
			}
			_, _, err = in.plane.Read(addr, in.buf)
		}
		d := time.Since(start)
		if traced {
			l.end()
			in.tt.l = nil
		}
		if err != nil {
			p.lost(1, fmt.Errorf("op on page %d: %w", page, err))
			continue
		}
		p.done(1, d)
		if !write {
			in.content(in.exp, page, in.versions[page])
			if err := checkRead(page, in.versions[page], in.buf, in.exp); err != nil {
				p.wrong(1, err)
			}
		}
	}
	l.close()
	if p.digesting(i) {
		p.digestf("dataplane %d %+v %+v\n", i, in.plane.Stats(), in.plane.AllocStats())
	}
}

// checkRead requires a read to return the page's last write.
func checkRead(page int, version uint32, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("read of page %d (version %d) returned other bytes", page, version)
	}
	return nil
}

func (in *dpInst) finish(p *phase) error {
	st := in.plane.Stats()
	if ops := st.LocalOps + st.RemoteOps; ops > 0 {
		p.counts["memplane.remote_frac"] = float64(st.RemoteOps) / float64(ops)
	}
	if ops := st.Reads + st.Writes; ops > 0 {
		p.counts["memplane.sim_ns_per_op"] = float64(st.ChargedNs) / float64(ops)
	}
	p.counts["rdma.verbs"] = float64(in.verbs + in.fabricVerbs())
	return p.heapPerLent(in.lent, func() error {
		in.closePlane()
		in.fleet, in.plane = nil, nil
		return nil
	})
}

func (in *dpInst) close() {
	if in.plane != nil {
		in.closePlane()
	}
}

// tracedTransport times the plane's one-sided verbs while an op is sampled
// (l set).
type tracedTransport struct {
	inner memplane.Transport
	l     *lane
}

func (t *tracedTransport) WriteRemote(f memplane.Frame, off int64, src []byte) (int64, error) {
	t.l.begin("rdma.verb")
	defer t.l.end()
	return t.inner.WriteRemote(f, off, src)
}

func (t *tracedTransport) ReadRemote(f memplane.Frame, off int64, dst []byte) (int64, error) {
	t.l.begin("rdma.verb")
	defer t.l.end()
	return t.inner.ReadRemote(f, off, dst)
}

func (t *tracedTransport) MovesBytes() bool { return t.inner.MovesBytes() }
