// Package sparsemem is allocate-on-write byte storage: a fixed-size address
// range backed by 64 KiB chunks, each allocated on its first write. Reads of
// chunks never written return zeros. It backs the simulator's large memory
// ranges (RDMA memory regions, memplane local arenas) so real heap tracks the
// bytes actually written, not the bytes simulated: a zombie lending 1 GiB
// costs a map header until data moves into it.
//
// A Store is not safe for concurrent use; its owner serialises access (the
// fabric lock for regions, the plane lock for arenas). Offsets are not
// bounds-checked beyond a panic, like slicing: callers validate ranges and
// return their own errors.
package sparsemem

import "fmt"

// ChunkSize is the allocation granule in bytes.
const ChunkSize = 64 << 10

// Store is a size-byte range of allocate-on-write memory.
type Store struct {
	size   int64
	chunks map[int64][]byte // chunk index -> backing bytes, made on first write
}

// New returns an empty store of size bytes. It allocates no chunk.
func New(size int64) *Store {
	if size < 0 {
		panic(fmt.Sprintf("sparsemem: negative size %d", size))
	}
	return &Store{size: size}
}

// Len returns the store size in bytes.
func (s *Store) Len() int64 { return s.size }

// ReadAt copies len(dst) bytes starting at off into dst. Unwritten bytes read
// as zeros, and reading allocates nothing.
func (s *Store) ReadAt(dst []byte, off int64) {
	s.check(off, len(dst))
	for len(dst) > 0 {
		idx, in := off/ChunkSize, off%ChunkSize
		n := min(int64(len(dst)), s.chunkLen(idx)-in)
		if c := s.chunks[idx]; c != nil {
			copy(dst[:n], c[in:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+n
	}
}

// WriteAt copies src into the store at off, allocating the chunks it touches
// for the first time.
func (s *Store) WriteAt(src []byte, off int64) {
	s.check(off, len(src))
	for len(src) > 0 {
		idx, in := off/ChunkSize, off%ChunkSize
		c := s.chunks[idx]
		if c == nil {
			if s.chunks == nil {
				s.chunks = make(map[int64][]byte)
			}
			c = make([]byte, s.chunkLen(idx))
			s.chunks[idx] = c
		}
		n := int64(copy(c[in:], src))
		src, off = src[n:], off+n
	}
}

// Zero sets n bytes starting at off to zero. It never allocates: unwritten
// chunks are already zero, and a chunk the range covers entirely is dropped.
func (s *Store) Zero(off, n int64) {
	s.check(off, int(n))
	for n > 0 {
		idx, in := off/ChunkSize, off%ChunkSize
		clen := s.chunkLen(idx)
		span := min(n, clen-in)
		if c := s.chunks[idx]; c != nil {
			if span == clen {
				delete(s.chunks, idx)
			} else {
				clear(c[in : in+span])
			}
		}
		off, n = off+span, n-span
	}
}

// chunkLen returns the length of chunk idx: ChunkSize, or less for the last
// chunk of a store whose size is not a multiple of it.
func (s *Store) chunkLen(idx int64) int64 {
	return min(ChunkSize, s.size-idx*ChunkSize)
}

func (s *Store) check(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > s.size {
		panic(fmt.Sprintf("sparsemem: range [%d,%d) outside store of %d bytes", off, off+int64(n), s.size))
	}
}
