package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers around the program's public entry points.
type span struct {
	name   string
	id     uint64
	parent uint64 // 0 for a root span
	req    uint64 // shared by every span of one request, op, tick or cell
	start  int64  // ns since the tracer's epoch
	end    int64
	child  int64 // ns of this span covered by its direct children
}

// self is the span's duration minus the part its children cover.
func (s span) self() int64 { return s.end - s.start - s.child }

// tracer keeps every finished span in memory until the run ends. A nil
// *tracer is the untraced run: every method is then a no-op.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	// bytes counts what the tracer itself allocated, so the traced run's
	// runtime.alloc_mib can leave it out.
	bytes int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane opens a sequential activity (one replay, one cell, one request) with
// a fresh request id. Spans on a lane nest strictly, so the lane tracks
// child coverage itself; a lane belongs to one goroutine at a time.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t, req: t.ids.Add(1)}
}

// laneFor opens a lane that joins an existing request id (a server-side
// handler joining the client's request), under the given parent span.
func (t *tracer) laneFor(req, parent uint64) *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t, req: req, root: parent}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// lane is one goroutine's stack of open spans plus the spans it finished.
type lane struct {
	t     *tracer
	req   uint64
	root  uint64 // parent id for the lane's outermost spans
	open  []int  // indices into spans of the open spans, innermost last
	spans []span
}

// begin opens a span as a child of the innermost open span and returns its
// id (0 on a nil lane).
func (l *lane) begin(name string) uint64 {
	if l == nil {
		return 0
	}
	parent := l.root
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].id
	}
	id := l.t.ids.Add(1)
	l.open = append(l.open, len(l.spans))
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, req: l.req, start: l.t.now()})
	return id
}

// end closes the innermost open span and charges its duration to its parent.
func (l *lane) end() {
	if l == nil {
		return
	}
	n := len(l.open)
	i := l.open[n-1]
	l.open = l.open[:n-1]
	s := &l.spans[i]
	s.end = l.t.now()
	if n > 1 {
		l.spans[l.open[n-2]].child += s.end - s.start
	}
}

// close hands the lane's finished spans to the tracer.
func (l *lane) close() {
	if l == nil {
		return
	}
	if len(l.open) != 0 {
		panic(fmt.Sprintf("e2ebench: lane closed with %d open spans", len(l.open)))
	}
	size := int64(cap(l.spans)) * int64(unsafe.Sizeof(span{}))
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.spans...)
	l.t.bytes += size + int64(unsafe.Sizeof(lane{}))
	l.t.mu.Unlock()
	l.spans = nil
}

// allocated returns the bytes the tracer allocated for its own spans.
func (t *tracer) allocated() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// agg summarises every span of one name.
type agg struct {
	count int
	total int64 // ns
	self  int64 // ns
	max   int64 // ns
}

func (a agg) meanNs() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count)
}

// aggregate groups the recorded spans by name.
func (t *tracer) aggregate() map[string]agg {
	out := make(map[string]agg)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		a := out[s.name]
		d := s.end - s.start
		a.count++
		a.total += d
		a.self += s.self()
		if d > a.max {
			a.max = d
		}
		out[s.name] = a
	}
	return out
}

// write saves every span as CSV, ordered by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns,self_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.id, s.parent, s.req, s.name, s.start, s.end, s.self())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
