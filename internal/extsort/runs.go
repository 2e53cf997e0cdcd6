// Run storage: sorted leaves live in memory up to the resident-key
// budget; beyond it they spill to one temp file as contiguous
// fixed-width segments (8 bytes per key, little endian). A single file
// holds every spilled leaf — positional writes into segments reserved
// in input order, positional buffered reads on the merge side — so a
// ten-thousand-run input costs one descriptor, not ten thousand.
//
// Placement (resident or which segment) is decided on Sort's own
// goroutine in input order, so the spill layout and the accounting are
// deterministic; the encoding and the WriteAt of a reserved segment may
// then run on any goroutine, because reserved segments never overlap.

package extsort

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// spillBufKeys is the per-stream read buffer and the spill write
// granularity, in keys (4096 keys = 32 KiB).
const spillBufKeys = 4096

// keyBytes is the on-disk key width.
const keyBytes = 8

// runHandle is one sorted leaf: resident (mem != nil) or a spill-file
// segment [off, off+count·keyBytes). fences holds the leaf's keys at
// indices 0, fenceStride, 2·fenceStride, …, recorded by whoever writes
// the leaf while its keys are in memory; the final merge cuts the
// leaves into key ranges with them.
type runHandle struct {
	mem    []Key
	off    int64
	count  int
	fences []Key
}

// runStore owns the resident budget and the spill file.
type runStore struct {
	dir      string
	budget   int // MemoryKeys
	resident int
	runs     []runHandle
	fileEnd  int64 // end of the reserved segments

	// The spill file is created on first write, by whichever goroutine
	// gets there first; a creation failure is sticky.
	fileMu  sync.Mutex
	file    *os.File
	fileErr error

	// Spill accounting and I/O busy time, summed across goroutines and
	// folded into Stats by foldStats.
	spilledRuns, spilledBytes atomic.Int64
	writeNs, readNs           atomic.Int64

	met *metrics
}

func newRunStore(dir string, budget int, met *metrics) *runStore {
	return &runStore{dir: dir, budget: budget, met: met}
}

// place gives the next leaf of n keys its home, in input order: a
// fresh resident buffer while the budget allows, a reserved spill
// segment otherwise. The caller fills the buffer or writes the segment.
func (st *runStore) place(n int) runHandle {
	h := runHandle{count: n, fences: make([]Key, fenceCount(n))}
	if st.resident+n <= st.budget {
		st.resident += n
		h.mem = make([]Key, n)
	} else {
		h.off = st.reserve(n)
	}
	st.runs = append(st.runs, h)
	return h
}

// reserve claims a segment of n keys at the end of the spill file.
func (st *runStore) reserve(n int) int64 {
	off := st.fileEnd
	st.fileEnd += int64(n) * keyBytes
	return off
}

// spillFile returns the spill file, creating it on first use.
func (st *runStore) spillFile() (*os.File, error) {
	st.fileMu.Lock()
	defer st.fileMu.Unlock()
	if st.file != nil || st.fileErr != nil {
		return st.file, st.fileErr
	}
	dir := st.dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "extsort-spill-*")
	if err != nil {
		st.fileErr = fmt.Errorf("extsort: creating spill file: %w", err)
		return nil, st.fileErr
	}
	// Unlinking immediately keeps the cleanup contract trivial: the
	// segments stay readable through the descriptor, and the kernel
	// reclaims the space the moment the descriptor closes — even if
	// the process dies mid-sort.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		st.fileErr = fmt.Errorf("extsort: unlinking spill file: %w", err)
		return nil, st.fileErr
	}
	st.file = f
	return f, nil
}

// writeAt encodes keys through buf (a whole number of keys wide) and
// writes them at byte offset off. Safe on any goroutine: every caller
// writes inside its own reserved segment.
func (st *runStore) writeAt(keys []Key, off int64, buf []byte) error {
	f, err := st.spillFile()
	if err != nil {
		return err
	}
	defer st.timeWrite(time.Now())
	for len(keys) > 0 {
		n := min(len(keys), len(buf)/keyBytes)
		for i, k := range keys[:n] {
			binary.LittleEndian.PutUint64(buf[i*keyBytes:], uint64(k))
		}
		if _, err := f.WriteAt(buf[:n*keyBytes], off); err != nil {
			return fmt.Errorf("extsort: spill write: %w", err)
		}
		off += int64(n) * keyBytes
		keys = keys[n:]
	}
	return nil
}

// readAt reads len(dst) keys at byte offset off, decoding them through
// buf (a whole number of keys wide). Safe on any goroutine once every
// segment it reads is written.
func (st *runStore) readAt(dst []Key, off int64, buf []byte) error {
	defer st.timeRead(time.Now())
	for len(dst) > 0 {
		n := min(len(dst), len(buf)/keyBytes)
		raw := buf[:n*keyBytes]
		if _, err := st.file.ReadAt(raw, off); err != nil {
			return fmt.Errorf("extsort: spill read: %w", err)
		}
		for i := range dst[:n] {
			dst[i] = Key(binary.LittleEndian.Uint64(raw[i*keyBytes:]))
		}
		off += int64(n) * keyBytes
		dst = dst[n:]
	}
	return nil
}

// spilled accounts one fully written segment of n keys.
func (st *runStore) spilled(n int) {
	bytes := int64(n) * keyBytes
	st.spilledRuns.Add(1)
	st.spilledBytes.Add(bytes)
	if st.met != nil {
		st.met.spillRuns.Inc()
		st.met.spillBytes.Add(bytes)
	}
}

// timeWrite and timeRead add the time since t0 to the spill write or
// read busy time and its histogram.
func (st *runStore) timeWrite(t0 time.Time) {
	d := time.Since(t0).Nanoseconds()
	st.writeNs.Add(d)
	if st.met != nil {
		st.met.spillWriteNs.Observe(d)
	}
}

func (st *runStore) timeRead(t0 time.Time) {
	d := time.Since(t0).Nanoseconds()
	st.readNs.Add(d)
	if st.met != nil {
		st.met.spillReadNs.Observe(d)
	}
}

// foldStats copies the spill accounting into stats. Call it once every
// goroutine that writes has been joined.
func (st *runStore) foldStats(stats *Stats) {
	stats.SpilledRuns = st.spilledRuns.Load()
	stats.SpilledBytes = st.spilledBytes.Load()
	stats.SpillWriteNs = st.writeNs.Load()
	stats.SpillReadNs = st.readNs.Load()
}

// close releases the spill file (and with it, by the unlink above, the
// disk space). Safe to call when nothing ever spilled, and idempotent.
func (st *runStore) close() {
	if st.file != nil {
		st.file.Close()
		st.file = nil
	}
}

// keyStream is a pull cursor over one sorted run, a block at a time.
type keyStream interface {
	// next returns the stream's next block, valid until the following
	// call; an empty block marks the end — or a read error, which fail()
	// then reports, so an exhausted stream is never conflated with a
	// failed one.
	next() []Key
	// fail returns the first read error, nil on a clean stream.
	fail() error
}

// memStream cursors a resident run: the whole run is one block.
type memStream struct {
	keys []Key
}

func (s *memStream) next() []Key {
	b := s.keys
	s.keys = nil
	return b
}

func (s *memStream) fail() error { return nil }

// spillStream cursors a spill segment through positional reads; every
// stream shares the file descriptor safely because every read is an
// offset ReadAt.
type spillStream struct {
	st        *runStore
	off       int64
	remaining int
	buf       []Key
	raw       []byte // shared by one merge's spill streams
	err       error
}

func (s *spillStream) fail() error { return s.err }

// next reads and decodes the next block of the segment.
func (s *spillStream) next() []Key {
	if s.remaining == 0 || s.err != nil {
		return nil
	}
	n := min(s.remaining, len(s.buf))
	buf := s.buf[:n]
	if s.err = s.st.readAt(buf, s.off, s.raw); s.err != nil {
		return nil
	}
	s.off += int64(n) * keyBytes
	s.remaining -= n
	return buf
}
