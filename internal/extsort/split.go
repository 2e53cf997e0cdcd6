// The final merge, split into key ranges: the paper's Section 3 merge
// cuts its inputs and merges the parts side by side (Steps 1–4); so
// does this one. Every leaf carries fences, its keys at every
// fenceStride-th index. Sorted in the total order (key, leaf, index),
// the fences are a sample of the whole merge; evenly spaced elements
// of it are the splitters, and each splitter cuts every leaf at the
// number of that leaf's keys that come before it in the same order.
// Chunk c is the keys between splitters c−1 and c. GOMAXPROCS workers
// load and merge the chunks — a resident leaf's range is merged where
// it lies, a spilled one is decoded into the worker's stage buffer
// with one positional read — and Sort's goroutine writes each merged
// chunk to the sink in chunk order. Because every cut is taken in one
// total order, concatenating the chunk merges is the full merge
// (THEORY.md §15); ties broken by (leaf, index) keep the chunks
// balanced even when a splitter falls inside a run of equal keys.
// Intermediate passes cut their groups with the same plan.

package extsort

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// fenceStride is the fence spacing in keys. A cut into a spilled leaf
// costs a binary search over its fences and one positional read of
// fewer than fenceStride keys; at 1e7 keys the fences take ~156 KB.
const fenceStride = 512

// splitter is one chunk boundary: a key, named by its place in the
// total order (key, leaf, index) that makes every key distinct.
type splitter struct {
	key   Key
	leaf  int
	index int
}

func (a splitter) cmp(b splitter) int {
	switch {
	case a.key != b.key:
		return cmp.Compare(a.key, b.key)
	case a.leaf != b.leaf:
		return a.leaf - b.leaf
	}
	return a.index - b.index
}

// splitPlan cuts the final merge's leaves into chunks. It is read-only
// once built, so the chunk workers share it.
type splitPlan struct {
	store     *runStore
	leaves    []runHandle
	splitters []splitter // chunks()−1 inner boundaries, in order
	maxChunk  int        // no chunk holds more keys
}

// newSplitPlan picks splitters so chunk c holds about chunkKeys keys.
// Each fence stands for the keys from it up to the next fence of its
// leaf; boundary t goes at the first fence with at least t·chunkKeys
// keys standing before it. Then a boundary's true rank is at most
// fenceStride−1 above its target and at most (leaves−1)·(fenceStride−1)
// below it, so every chunk is within leaves·fenceStride keys of its
// target. A boundary past the last fence cuts every leaf at its end.
func newSplitPlan(store *runStore, leaves []runHandle, chunkKeys int) *splitPlan {
	p := &splitPlan{store: store, leaves: leaves}
	total := countKeys(leaves)
	p.maxChunk = min(total, chunkKeys+len(leaves)*fenceStride)
	chunks := max(1, (total+chunkKeys-1)/chunkKeys)
	if chunks == 1 {
		return p
	}
	fences := 0
	for _, h := range leaves {
		fences += len(h.fences)
	}
	sample := make([]splitter, 0, fences)
	for j, h := range leaves {
		for f, k := range h.fences {
			sample = append(sample, splitter{key: k, leaf: j, index: f * fenceStride})
		}
	}
	slices.SortFunc(sample, splitter.cmp)
	before := 0
	for _, s := range sample {
		for len(p.splitters) < chunks-1 && before >= (len(p.splitters)+1)*chunkKeys {
			p.splitters = append(p.splitters, s)
		}
		before += min(fenceStride, leaves[s.leaf].count-s.index)
	}
	for len(p.splitters) < chunks-1 {
		p.splitters = append(p.splitters, splitter{key: math.MaxInt64, leaf: len(leaves)})
	}
	return p
}

// chunks is how many key ranges the merge is split into.
func (p *splitPlan) chunks() int { return len(p.splitters) + 1 }

// cut sets at[j] to the number of leaf j's keys before boundary b —
// 0 at the first boundary, the leaf's length at the last. blk and raw
// are the calling worker's search buffers.
func (p *splitPlan) cut(b int, at []int, blk []Key, raw []byte) error {
	switch b {
	case 0:
		clear(at)
		return nil
	case p.chunks():
		for j, h := range p.leaves {
			at[j] = h.count
		}
		return nil
	}
	s := p.splitters[b-1]
	for j, h := range p.leaves {
		if j == s.leaf {
			at[j] = s.index
			continue
		}
		// Equal keys of an earlier leaf come before the splitter, those
		// of a later leaf after it.
		n, err := p.rank(h, s.key, j < s.leaf, blk, raw)
		if err != nil {
			return err
		}
		at[j] = n
	}
	return nil
}

// rank returns how many of leaf h's keys are below k, or at most k
// when tiesBefore is set. A spilled leaf is searched through its
// fences and then the one block between two fences that holds the
// answer.
func (p *splitPlan) rank(h runHandle, k Key, tiesBefore bool, blk []Key, raw []byte) (int, error) {
	if h.mem != nil {
		return bound(h.mem, k, tiesBefore), nil
	}
	q := bound(h.fences, k, tiesBefore)
	if q == 0 {
		return 0, nil
	}
	// Fence q−1 comes before k and fence q, if there is one, does not.
	lo, hi := (q-1)*fenceStride+1, min(q*fenceStride, h.count)
	blk = blk[:hi-lo]
	if err := p.store.readAt(blk, h.off+int64(lo)*keyBytes, raw); err != nil {
		return 0, err
	}
	return lo + bound(blk, k, tiesBefore), nil
}

// bound returns how many of the sorted keys are below k, or at most k
// when tiesBefore is set.
func bound(keys []Key, k Key, tiesBefore bool) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < k || tiesBefore && keys[m] == k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// chunkLoader loads chunk c for the worker that owns it: the chunk's
// nonempty sorted parts and how many keys they hold.
type chunkLoader func(c int) ([][]Key, int, error)

// loader returns a chunkLoader for one worker. It owns its cuts and its
// search block, and decodes spilled ranges into bufs.stage (maxChunk
// keys, allocated on the first spilled range), so the workers share
// only the read-only plan and the spill file, which they read with
// ReadAt at their own offsets. The parts are valid until the next call.
func (p *splitPlan) loader(bufs *mergeBufs) chunkLoader {
	k := len(p.leaves)
	lo, hi := make([]int, k), make([]int, k)
	blk := make([]Key, fenceStride)
	parts := make([][]Key, 0, k)
	return func(c int) ([][]Key, int, error) {
		raw := bufs.rawBuf()
		if err := p.cut(c, lo, blk, raw); err != nil {
			return nil, 0, err
		}
		if err := p.cut(c+1, hi, blk, raw); err != nil {
			return nil, 0, err
		}
		parts = parts[:0]
		total, staged := 0, 0
		for j, h := range p.leaves {
			n := hi[j] - lo[j]
			switch {
			case n == 0:
				continue
			case h.mem != nil:
				parts = append(parts, h.mem[lo[j]:hi[j]])
			default:
				bufs.stage = ensure(bufs.stage, p.maxChunk)
				part := bufs.stage[staged : staged+n]
				if err := p.store.readAt(part, h.off+int64(lo[j])*keyBytes, raw); err != nil {
					return nil, 0, err
				}
				parts = append(parts, part)
				staged += n
			}
			total += n
		}
		return parts, total, nil
	}
}

// chunkMerge is the final merge's worker pool.
type chunkMerge struct {
	next    atomic.Int64 // the next chunk to claim
	bufKeys int
	// free holds the chunk buffers not in use: at most workers+1 ever
	// exist, so a send never blocks.
	free chan []Key
	// merged[c] carries chunk c's merged keys, in its chunk buffer,
	// from the worker that merged it to the writer; one send each.
	merged []chan []Key

	wg      sync.WaitGroup
	cancel  context.CancelFunc
	errOnce sync.Once
	err     error
}

// mergeChunks merges chunks 0..n−1 on GOMAXPROCS workers, each loading
// its chunks through its own loader from newLoader and merging them
// with its own buffers, and writes them to dst in chunk order, one
// outBlockKeys block per Write, from the calling goroutine. Chunk
// buffers hold bufKeys keys, so a chunk that size or smaller never
// reallocates one. A worker takes a free chunk buffer before it claims
// the next chunk, so the lowest chunk not yet written always holds a
// buffer or has every buffer free to take: the pipeline cannot
// deadlock. It returns once every worker has exited; a worker's
// failure wins over the cancellation it causes.
func mergeChunks(ctx context.Context, dst Writer, n, bufKeys int, newLoader func(*mergeBufs) chunkLoader) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := min(runtime.GOMAXPROCS(0), n)
	cm := &chunkMerge{
		bufKeys: bufKeys,
		free:    make(chan []Key, workers+1),
		merged:  make([]chan []Key, n),
		cancel:  cancel,
	}
	for range workers + 1 {
		cm.free <- nil // allocated by the first worker to take it
	}
	for c := range cm.merged {
		cm.merged[c] = make(chan []Key, 1)
	}
	cm.wg.Add(workers)
	for range workers {
		bufs := &mergeBufs{}
		go cm.work(ctx, newLoader(bufs), bufs)
	}
	err := cm.write(ctx, dst)
	cancel()
	cm.wg.Wait()
	if cm.err != nil {
		return cm.err
	}
	return err
}

// write is the caller-goroutine half: every Writer.Write call happens
// here, one at a time, in chunk order.
func (cm *chunkMerge) write(ctx context.Context, dst Writer) error {
	for _, merged := range cm.merged {
		var keys []Key
		select {
		case keys = <-merged:
		case <-ctx.Done():
			return ctx.Err()
		}
		for at := 0; at < len(keys); at += outBlockKeys {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := dst.Write(keys[at:min(at+outBlockKeys, len(keys))]); err != nil {
				return err
			}
		}
		cm.free <- keys
	}
	return nil
}

// work merges chunks until none is left or the merge stops.
func (cm *chunkMerge) work(ctx context.Context, load chunkLoader, bufs *mergeBufs) {
	defer cm.wg.Done()
	for {
		var buf []Key
		select {
		case buf = <-cm.free:
		case <-ctx.Done():
			return
		}
		c := int(cm.next.Add(1) - 1)
		if c >= len(cm.merged) {
			return
		}
		if err := cm.merge(ctx, load, bufs, c, buf); err != nil {
			if ctx.Err() == nil { // a stop is not the worker's failure
				cm.fail(err)
			}
			return
		}
	}
}

// merge loads chunk c and merges it into buf, allocating buf (bufKeys
// keys, or more when the chunk does not fit) if it is too small, then
// hands it to the writer.
func (cm *chunkMerge) merge(ctx context.Context, load chunkLoader, bufs *mergeBufs, c int, buf []Key) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	parts, total, err := load(c)
	if err != nil {
		return err
	}
	if cap(buf) < total {
		buf = make([]Key, max(total, cm.bufKeys))
	}
	bufs.tmp = ensure(bufs.tmp, max(total, cm.bufKeys))
	buf = buf[:total]
	Merge(buf, bufs.tmp, parts)
	cm.merged[c] <- buf
	return nil
}

// fail records the first worker error and stops the merge.
func (cm *chunkMerge) fail(err error) {
	cm.errOnce.Do(func() {
		cm.err = err
		cm.cancel()
	})
}
