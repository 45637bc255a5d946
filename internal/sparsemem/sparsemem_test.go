package sparsemem

import (
	"bytes"
	"testing"
)

func TestNewAllocatesNothing(t *testing.T) {
	s := New(1 << 40) // a terabyte of simulated memory
	if s.Len() != 1<<40 {
		t.Fatalf("len = %d", s.Len())
	}
	dst := bytes.Repeat([]byte{0xFF}, 3*ChunkSize)
	s.ReadAt(dst, 1<<39)
	if !bytes.Equal(dst, make([]byte, len(dst))) {
		t.Fatal("unwritten bytes must read as zeros")
	}
	if len(s.chunks) != 0 {
		t.Fatalf("%d chunks after reads only, want 0", len(s.chunks))
	}
	if allocs := testing.AllocsPerRun(100, func() { s.ReadAt(dst, 12345) }); allocs != 0 {
		t.Fatalf("ReadAt of unwritten chunks allocates %.0f times", allocs)
	}
}

func TestWriteSpansChunkBoundaries(t *testing.T) {
	s := New(4 * ChunkSize)
	src := make([]byte, ChunkSize+200)
	for i := range src {
		src[i] = byte(i%251 + 1)
	}
	off := int64(ChunkSize - 100) // unaligned, straddles chunks 0, 1 and 2
	s.WriteAt(src, off)
	if len(s.chunks) != 3 {
		t.Fatalf("%d chunks, want 3", len(s.chunks))
	}
	got := make([]byte, len(src))
	s.ReadAt(got, off)
	if !bytes.Equal(got, src) {
		t.Fatal("read back differs from write across chunk boundaries")
	}
	// The bytes around the write are still zero.
	edge := make([]byte, 2)
	s.ReadAt(edge, off-1)
	if edge[0] != 0 || edge[1] != src[0] {
		t.Fatalf("bytes before the write = %v", edge)
	}
	s.ReadAt(edge, off+int64(len(src))-1)
	if edge[0] != src[len(src)-1] || edge[1] != 0 {
		t.Fatalf("bytes after the write = %v", edge)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.WriteAt(src, off) }); allocs != 0 {
		t.Fatalf("rewriting resident chunks allocates %.0f times", allocs)
	}
}

func TestLastPartialChunk(t *testing.T) {
	size := int64(2*ChunkSize + 1000)
	s := New(size)
	tail := bytes.Repeat([]byte{7}, 1500)
	s.WriteAt(tail, size-int64(len(tail)))
	if c := s.chunks[2]; len(c) != 1000 {
		t.Fatalf("last chunk holds %d bytes, want 1000", len(c))
	}
	got := make([]byte, len(tail))
	s.ReadAt(got, size-int64(len(tail)))
	if !bytes.Equal(got, tail) {
		t.Fatal("tail read back differs")
	}
	s.WriteAt([]byte{9}, size-1)
	s.ReadAt(got[:1], size-1)
	if got[0] != 9 {
		t.Fatal("last byte not written")
	}
}

func TestZeroNeverAllocates(t *testing.T) {
	s := New(4 * ChunkSize)
	if allocs := testing.AllocsPerRun(100, func() { s.Zero(100, 2*ChunkSize) }); allocs != 0 {
		t.Fatalf("zeroing unwritten memory allocates %.0f times", allocs)
	}
	if len(s.chunks) != 0 {
		t.Fatal("zeroing must not materialise chunks")
	}
	s.WriteAt(bytes.Repeat([]byte{1}, 3*ChunkSize), 0)
	// Partly covers chunk 0, entirely covers chunk 1, partly covers chunk 2.
	s.Zero(ChunkSize-10, ChunkSize+20)
	if _, ok := s.chunks[1]; ok {
		t.Fatal("a fully zeroed chunk should be dropped")
	}
	got := make([]byte, 3*ChunkSize)
	s.ReadAt(got, 0)
	for i, b := range got {
		want := byte(1)
		if i >= ChunkSize-10 && i < 2*ChunkSize+10 {
			want = 0
		}
		if b != want {
			t.Fatalf("byte %d = %d, want %d", i, b, want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(ChunkSize + 1)
	cases := map[string]func(){
		"read past end":   func() { s.ReadAt(make([]byte, 2), ChunkSize) },
		"write past end":  func() { s.WriteAt(make([]byte, 2), ChunkSize) },
		"negative offset": func() { s.ReadAt(make([]byte, 1), -1) },
		"zero past end":   func() { s.Zero(1, ChunkSize+1) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	// The exact last byte is in range.
	s.WriteAt([]byte{1}, ChunkSize)
	s.ReadAt(make([]byte, 0), ChunkSize+1)
}

// FuzzStoreMatchesSlice replays random writes, zeroes and reads against a
// plain byte slice of the same size: the store must be indistinguishable.
func FuzzStoreMatchesSlice(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 17, 99, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xFF, 0x80, 0x01}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const size = 3*ChunkSize + 777
		s, ref := New(size), make([]byte, size)
		for i := 0; i+3 < len(ops); i += 4 {
			off := (int64(ops[i+1])<<10 | int64(ops[i+2])<<2) % size
			n := min(int64(ops[i+3])*int64(ops[i+3])*2, size-off)
			switch ops[i] % 3 {
			case 0:
				src := bytes.Repeat([]byte{ops[i] | 1}, int(n))
				s.WriteAt(src, off)
				copy(ref[off:], src)
			case 1:
				s.Zero(off, n)
				clear(ref[off : off+n])
			case 2:
				got := make([]byte, n)
				s.ReadAt(got, off)
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("op %d: read [%d,%d) differs from reference", i/4, off, off+n)
				}
			}
		}
		all := make([]byte, size)
		s.ReadAt(all, 0)
		if !bytes.Equal(all, ref) {
			t.Fatal("final contents differ from reference")
		}
	})
}
