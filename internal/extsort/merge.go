// The k-way merge: a balanced tree of 2-way merges over sorted parts,
// the software image of the paper's Section 3 multiway merge, whose
// 2-way case is Batcher's merge. Each 2-way merge runs the merge
// kernel (kernel.go, kernel_amd64.s): a 16-key bitonic merging network
// in vector registers, eight keys a step, on AVX-512 hosts, a
// branch-free scalar loop elsewhere. The tree is walked depth first,
// alternating between the destination and one scratch buffer so that
// the last merge lands in the destination, and so that the low levels
// merge cache-resident blocks; a k-way merge costs ⌈log₂ k⌉ passes of
// the kernel over its keys.
//
// Every merge of a Sort call runs on one pool of GOMAXPROCS workers,
// each with one set of buffers for the whole call: the pre-merge of a
// batch of runs into a leaf (form.go), and each chunk of every merge
// pass, which mergeChunks queues on the pool and hands, in chunk
// order, to a sink on Sort's goroutine.
//
// When the leaf count exceeds the fan-in, earlier passes merge groups
// of leaves into intermediate spill segments until the final merge fits
// the fan-in — exactly the recursive composition the agglomeration law
// certifies (THEORY.md §15). A pass cuts each group into key ranges
// with the final merge's split plan, and its sink records each merged
// chunk's fences and writes it to the group's segment, so a pass holds
// what the final merge holds, never a whole leaf.

package extsort

import (
	"context"
	"runtime"
	"sync"
)

// outBlockKeys is the merged-output block size: the granularity of
// Writer.Write calls and of the context checks between them.
const outBlockKeys = 4096

// mergeBufs are one pool worker's buffers. Each is allocated the first
// time a task needs it, at the size of the largest merge it will
// serve, and reused for every task after that in the same Sort call.
type mergeBufs struct {
	tmp   []Key  // the merge tree's scratch
	spill []Key  // a merged leaf on its way to the spill file, or a chunk's spilled parts, decoded
	raw   []byte // spill encoding and decoding
	// A chunk's cuts into its leaves, its parts, and the block a cut
	// searches between two fences of a spilled leaf.
	lo, hi []int
	parts  [][]Key
	blk    []Key
}

// ensure returns buf if it holds at least n elements, else a new buffer
// of n.
func ensure[T any](buf []T, n int) []T {
	if len(buf) < n {
		return make([]T, n)
	}
	return buf
}

// rawBuf returns the spill coding buffer, allocating it on first use.
func (b *mergeBufs) rawBuf() []byte {
	if b.raw == nil {
		b.raw = make([]byte, spillBufKeys*keyBytes)
	}
	return b.raw
}

// pool is one Sort call's merge workers. They run the queued tasks in
// queue order; a task reports its failure with fail.
type pool struct {
	ctx     context.Context
	cancel  context.CancelFunc
	workers int
	// tasks holds at most workers+2 merges — run formation's batches,
	// or one chunk window — so a send never blocks.
	tasks chan func(bufs *mergeBufs)
	// chunkBufs are the chunk window's buffers, reused by every pass;
	// only Sort's goroutine touches the slice.
	chunkBufs [][]Key

	wg      sync.WaitGroup
	errOnce sync.Once
	err     error
}

// startPool starts GOMAXPROCS workers under a context derived from ctx.
func startPool(ctx context.Context) *pool {
	ctx, cancel := context.WithCancel(ctx)
	workers := runtime.GOMAXPROCS(0)
	p := &pool{
		ctx:       ctx,
		cancel:    cancel,
		workers:   workers,
		tasks:     make(chan func(*mergeBufs), workers+2),
		chunkBufs: make([][]Key, workers+1),
	}
	p.wg.Add(workers)
	for range workers {
		go p.work()
	}
	return p
}

// work runs tasks until the queue closes.
func (p *pool) work() {
	defer p.wg.Done()
	var bufs mergeBufs
	for t := range p.tasks {
		t(&bufs)
	}
}

// fail records the first task failure and cancels the pool's context.
// A task calls it before it hands back anything that Sort's goroutine
// waits for, so the failure is recorded by the time that wait ends. A
// failure once the context is done is the stop, not the task's.
func (p *pool) fail(err error) {
	if p.ctx.Err() == nil {
		p.errOnce.Do(func() {
			p.err = err
			p.cancel()
		})
	}
}

// stop joins every worker, once the tasks still queued have run, and
// returns the first task failure, which wins over err, or else err.
func (p *pool) stop(err error) error {
	p.cancel()
	close(p.tasks)
	p.wg.Wait()
	if p.err != nil {
		return p.err
	}
	return err
}

// mergeChunks merges chunks 0..n−1 on the pool and hands each merged
// chunk to sink on the calling goroutine, in chunk order. load(c, bufs)
// returns chunk c's nonempty sorted parts and how many keys they hold,
// loaded with the running worker's buffers. A window of at most
// workers+1 chunks is queued or merging at a time, each into its own
// chunk buffer (maxChunk keys, or more for a chunk that does not fit):
// once sink has taken chunk c, the chunk a window after it is queued
// with c's buffer. Tasks run in queue order, so the lowest chunk not
// yet handed over is always merging or queued, and the pipeline cannot
// deadlock. It returns the first sink error or ctx's error, which a
// failed task causes; the failure itself is the pool's.
func mergeChunks(ctx context.Context, pool *pool, n, maxChunk int, load func(c int, bufs *mergeBufs) ([][]Key, int, error), sink func(keys []Key) error) error {
	window := min(n, len(pool.chunkBufs))
	// merged[c%window] carries chunk c from its worker to the sink; a
	// chunk is queued only once the one before it in its slot is taken.
	merged := make([]chan []Key, window)
	queue := func(c int) {
		buf := pool.chunkBufs[c%window]
		pool.tasks <- func(bufs *mergeBufs) {
			if ctx.Err() != nil {
				return
			}
			parts, total, err := load(c, bufs)
			if err != nil {
				pool.fail(err)
				return
			}
			if cap(buf) < total {
				buf = make([]Key, max(total, maxChunk))
			}
			bufs.tmp = ensure(bufs.tmp, max(total, maxChunk))
			buf = buf[:total]
			Merge(buf, bufs.tmp, parts)
			merged[c%window] <- buf
		}
	}
	for c := range window {
		merged[c] = make(chan []Key, 1)
		queue(c)
	}
	for c := range n {
		var keys []Key
		select {
		case keys = <-merged[c%window]:
		case <-ctx.Done():
			return ctx.Err()
		}
		if err := sink(keys); err != nil {
			return err
		}
		pool.chunkBufs[c%window] = keys
		if c+window < n {
			queue(c + window)
		}
	}
	return nil
}

// mergeRuns merges every leaf in the store into dst on the pool, in as
// many passes as the fan-in demands. The final pass is split into key
// ranges that merge side by side, and its sink writes each chunk to
// dst one outBlockKeys block per Write.
func mergeRuns(ctx context.Context, pool *pool, store *runStore, dst Writer, p params, stats *Stats, met *metrics) error {
	handles := store.runs
	if len(handles) == 0 {
		return nil // empty input: nothing to write
	}
	for len(handles) > p.fanIn {
		var err error
		if handles, err = mergePass(ctx, pool, store, handles, p, stats, met); err != nil {
			return err
		}
		stats.MergePasses++
	}
	// Final pass: fan the surviving leaves into the sink.
	stats.MergePasses++
	observeFanIn(len(handles), stats, met)
	plan := newSplitPlan(store, handles, p.chunkKeys(len(handles)))
	stats.MergeChunks = plan.chunks()
	return mergeChunks(ctx, pool, plan.chunks(), plan.maxChunk, plan.load, func(keys []Key) error {
		for at := 0; at < len(keys); at += outBlockKeys {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := dst.Write(keys[at:min(at+outBlockKeys, len(keys))]); err != nil {
				return err
			}
		}
		return nil
	})
}

// chunkKeys is the size merges of the given number of leaves cut their
// chunks at: about one pre-merge leaf, but at least two fence strides
// per leaf and one output block, since every chunk costs a cut and a
// read per spilled leaf and its size is only within a fence stride per
// leaf of its target.
func (p params) chunkKeys(leaves int) int {
	return max(p.RunBatch*p.runSize, 2*fenceStride*leaves, outBlockKeys)
}

// mergePass runs one intermediate pass over handles (more than fanIn of
// them) and returns the survivors. When one merge of the first
// len−fanIn+1 leaves suffices, that is all it does — the final merge
// then has exactly fanIn inputs — so only the leaves that must be
// merged twice are read twice. Otherwise it is a full pass over groups
// of fanIn. Merged leaves keep their place in input order.
func mergePass(ctx context.Context, pool *pool, store *runStore, handles []runHandle, p params, stats *Stats, met *metrics) ([]runHandle, error) {
	if excess := len(handles) - p.fanIn; excess < p.fanIn {
		merged, err := mergeToSpill(ctx, pool, store, handles[:excess+1], p, stats, met)
		if err != nil {
			return nil, err
		}
		return append([]runHandle{merged}, handles[excess+1:]...), nil
	}
	next := make([]runHandle, 0, (len(handles)+p.fanIn-1)/p.fanIn)
	for lo := 0; lo < len(handles); lo += p.fanIn {
		group := handles[lo:min(lo+p.fanIn, len(handles))]
		if len(group) == 1 {
			next = append(next, group[0])
			continue
		}
		merged, err := mergeToSpill(ctx, pool, store, group, p, stats, met)
		if err != nil {
			return nil, err
		}
		next = append(next, merged)
	}
	return next, nil
}

// mergeToSpill merges one group of leaves into a new spill segment on
// the pool, a chunk of the group's split plan at a time; its sink
// records each chunk's fences and writes the chunk to the segment.
func mergeToSpill(ctx context.Context, pool *pool, store *runStore, group []runHandle, p params, stats *Stats, met *metrics) (runHandle, error) {
	observeFanIn(len(group), stats, met)
	count := countKeys(group)
	merged := runHandle{off: store.reserve(count), count: count, fences: make([]Key, fenceCount(count))}
	plan := newSplitPlan(store, group, p.chunkKeys(len(group)))
	raw := make([]byte, spillBufKeys*keyBytes)
	at := 0
	err := mergeChunks(ctx, pool, plan.chunks(), plan.maxChunk, plan.load, func(keys []Key) error {
		recordFences(merged.fences, keys, at)
		if err := store.writeAt(keys, merged.off+int64(at)*keyBytes, raw); err != nil {
			return err
		}
		at += len(keys)
		return nil
	})
	if err != nil {
		return runHandle{}, err
	}
	store.spilled(count)
	return merged, nil
}

// Merge merges the sorted parts into dst, which must hold exactly
// their total length; tmp is scratch of at least that length. It is
// the one k-way merge: the pre-merge, the intermediate passes and the
// final merge's chunks all run it, and cmd/bench times it.
func Merge(dst, tmp []Key, parts [][]Key) {
	if len(parts) == 1 {
		copy(dst, parts[0])
		return
	}
	mergeTree(dst, tmp, parts)
}

// mergeTree merges the sorted parts, depth first: each half of the
// parts merges into tmp, with dst as its own scratch, and the two
// halves merge into dst. It returns the merged keys: dst, or the only
// part itself, uncopied. dst holds exactly the parts' total, tmp at
// least that, and neither overlaps a part.
func mergeTree(dst, tmp []Key, parts [][]Key) []Key {
	switch len(parts) {
	case 0:
		return dst
	case 1:
		return parts[0]
	}
	mid := len(parts) / 2
	n := 0
	for _, part := range parts[:mid] {
		n += len(part)
	}
	l := mergeTree(tmp[:n], dst[:n], parts[:mid])
	r := mergeTree(tmp[n:len(dst)], dst[n:], parts[mid:])
	merge2(dst, l, r)
	return dst
}

// fenceCount is how many fences a leaf of n keys records.
func fenceCount(n int) int { return (n + fenceStride - 1) / fenceStride }

// recordFences records the fences among keys, which sit at index at of
// their leaf onward.
func recordFences(fences, keys []Key, at int) {
	for i := fenceCount(at) * fenceStride; i < at+len(keys); i += fenceStride {
		fences[i/fenceStride] = keys[i-at]
	}
}

// countKeys sums the handles' key counts.
func countKeys(handles []runHandle) int {
	n := 0
	for _, h := range handles {
		n += h.count
	}
	return n
}

// observeFanIn records one realized merge width.
func observeFanIn(k int, stats *Stats, met *metrics) {
	if k > stats.MaxFanIn {
		stats.MaxFanIn = k
	}
	if met != nil {
		met.fanIn.Observe(int64(k))
	}
}
