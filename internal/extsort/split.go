// The final merge, split into key ranges: the paper's Section 3 merge
// cuts its inputs and merges the parts side by side (Steps 1–4); so
// does this one. Every leaf carries fences, its keys at every
// fenceStride-th index. Sorted in the total order (key, leaf, index),
// the fences are a sample of the whole merge; evenly spaced elements
// of it are the splitters, and each splitter cuts every leaf at the
// number of that leaf's keys that come before it in the same order.
// Chunk c is the keys between splitters c−1 and c. The Sort call's
// pool workers load and merge the chunks (mergeChunks) — a resident
// leaf's range is merged where it lies, a spilled one is decoded into
// the worker's spill buffer with one positional read — and Sort's
// goroutine hands each merged chunk to the pass's sink in chunk order.
// Because every cut is taken in one total order, concatenating the
// chunk merges is the full merge (THEORY.md §15); ties broken by
// (leaf, index) keep the chunks balanced even when a splitter falls
// inside a run of equal keys. Intermediate passes cut their groups
// with the same plan.

package extsort

import (
	"cmp"
	"math"
	"slices"
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

// splitPlan cuts a merge's leaves into chunks. It is read-only once
// built, so the pool workers share it.
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
// 0 at the first boundary, the leaf's length at the last. It searches
// spilled leaves with the calling worker's buffers.
func (p *splitPlan) cut(b int, at []int, bufs *mergeBufs) error {
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
		n, err := p.rank(h, s.key, j < s.leaf, bufs)
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
func (p *splitPlan) rank(h runHandle, k Key, tiesBefore bool, bufs *mergeBufs) (int, error) {
	if h.mem != nil {
		return bound(h.mem, k, tiesBefore), nil
	}
	q := bound(h.fences, k, tiesBefore)
	if q == 0 {
		return 0, nil
	}
	// Fence q−1 comes before k and fence q, if there is one, does not.
	lo, hi := (q-1)*fenceStride+1, min(q*fenceStride, h.count)
	bufs.blk = ensure(bufs.blk, fenceStride)
	blk := bufs.blk[:hi-lo]
	if err := p.store.readAt(blk, h.off+int64(lo)*keyBytes, bufs.rawBuf()); err != nil {
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

// load loads chunk c with a worker's buffers: the chunk's nonempty
// sorted parts and how many keys they hold. A resident leaf's range is
// a part where it lies; a spilled one is decoded into bufs.spill
// (maxChunk keys, allocated on the first spilled range) with one
// positional read. Workers share only the read-only plan and the spill
// file, which they read with ReadAt at their own offsets. The parts are
// valid until the next load with the same buffers.
func (p *splitPlan) load(c int, bufs *mergeBufs) ([][]Key, int, error) {
	k := len(p.leaves)
	bufs.lo, bufs.hi = ensure(bufs.lo, k)[:k], ensure(bufs.hi, k)[:k]
	if err := p.cut(c, bufs.lo, bufs); err != nil {
		return nil, 0, err
	}
	if err := p.cut(c+1, bufs.hi, bufs); err != nil {
		return nil, 0, err
	}
	parts := bufs.parts[:0]
	total, staged := 0, 0
	for j, h := range p.leaves {
		lo, hi := bufs.lo[j], bufs.hi[j]
		switch {
		case lo == hi:
			continue
		case h.mem != nil:
			parts = append(parts, h.mem[lo:hi])
		default:
			bufs.spill = ensure(bufs.spill, p.maxChunk)
			part := bufs.spill[staged : staged+hi-lo]
			if err := p.store.readAt(part, h.off+int64(lo)*keyBytes, bufs.rawBuf()); err != nil {
				return nil, 0, err
			}
			parts = append(parts, part)
			staged += hi - lo
		}
		total += hi - lo
	}
	bufs.parts = parts
	return parts, total, nil
}
