// The k-way merge: a balanced tree of 2-way merges over sorted parts,
// the software image of the paper's Section 3 multiway merge, whose
// 2-way case is Batcher's merge. Each 2-way merge runs the merge
// kernel (kernel.go, kernel_amd64.s): a 16-key bitonic merging network
// in vector registers, eight keys a step, on AVX-512 hosts, a
// branch-free scalar loop elsewhere. The tree is walked depth first,
// alternating between the destination and one scratch buffer so that
// the last merge lands in the destination, and so that the low levels
// merge cache-resident blocks; a k-way merge costs ⌈log₂ k⌉ passes of
// the kernel over its keys. Three sites run it: the pre-merge of a
// batch of runs into a leaf (form.go), each chunk of an intermediate
// pass (mergeToSpill), and each chunk of the split final merge
// (split.go).
//
// When the leaf count exceeds the fan-in, earlier passes merge groups
// of leaves into intermediate spill segments until the final merge fits
// the fan-in — exactly the recursive composition the agglomeration law
// certifies (THEORY.md §15). A pass cuts each group into key ranges
// with the final merge's split plan and merges and writes one chunk at
// a time, so it holds a few chunk buffers, never a whole leaf.

package extsort

import "context"

// outBlockKeys is the merged-output block size: the granularity of
// Writer.Write calls and of the context checks between them.
const outBlockKeys = 4096

// mergeBufs are one merging goroutine's buffers: a pre-merge worker's,
// a final-merge chunk worker's, or the intermediate passes' on Sort's
// goroutine. Each is allocated the first time it is needed, at the
// size of the largest merge it will serve, and reused for every merge
// after that in the same Sort call.
type mergeBufs struct {
	out   []Key  // a merged leaf or chunk on its way to the spill file
	tmp   []Key  // the merge tree's scratch
	stage []Key  // a chunk's spilled parts, decoded
	raw   []byte // spill encoding and decoding
}

// ensure returns buf if it holds at least n keys, else a new buffer of
// n keys.
func ensure(buf []Key, n int) []Key {
	if len(buf) < n {
		return make([]Key, n)
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

// mergeRuns merges every leaf in the store into dst, in as many passes
// as the fan-in demands. The final pass is split into key ranges that
// merge side by side.
func mergeRuns(ctx context.Context, store *runStore, dst Writer, p params, stats *Stats, met *metrics) error {
	handles := store.runs
	if len(handles) == 0 {
		return nil // empty input: nothing to write
	}
	var bufs mergeBufs
	for len(handles) > p.fanIn {
		var err error
		if handles, err = mergePass(ctx, store, handles, p, &bufs, stats, met); err != nil {
			return err
		}
		stats.MergePasses++
	}
	// Final pass: fan the surviving leaves into the sink.
	stats.MergePasses++
	observeFanIn(len(handles), stats, met)
	plan := newSplitPlan(store, handles, p.chunkKeys(len(handles)))
	stats.MergeChunks = plan.chunks()
	return mergeChunks(ctx, dst, plan.chunks(), plan.maxChunk, plan.loader)
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
func mergePass(ctx context.Context, store *runStore, handles []runHandle, p params, bufs *mergeBufs, stats *Stats, met *metrics) ([]runHandle, error) {
	if excess := len(handles) - p.fanIn; excess < p.fanIn {
		merged, err := mergeToSpill(ctx, store, handles[:excess+1], p, bufs, stats, met)
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
		merged, err := mergeToSpill(ctx, store, group, p, bufs, stats, met)
		if err != nil {
			return nil, err
		}
		next = append(next, merged)
	}
	return next, nil
}

// mergeToSpill merges one group of leaves into a new spill segment, a
// chunk of the group's split plan at a time: load the chunk's parts,
// merge them into bufs.out, record its fences and write it.
func mergeToSpill(ctx context.Context, store *runStore, group []runHandle, p params, bufs *mergeBufs, stats *Stats, met *metrics) (runHandle, error) {
	observeFanIn(len(group), stats, met)
	count := countKeys(group)
	merged := runHandle{off: store.reserve(count), count: count, fences: make([]Key, fenceCount(count))}
	plan := newSplitPlan(store, group, p.chunkKeys(len(group)))
	load := plan.loader(bufs)
	bufs.out = ensure(bufs.out, plan.maxChunk)
	bufs.tmp = ensure(bufs.tmp, plan.maxChunk)
	at := 0
	for c := range plan.chunks() {
		if err := ctx.Err(); err != nil {
			return runHandle{}, err
		}
		parts, n, err := load(c)
		if err != nil {
			return runHandle{}, err
		}
		out := bufs.out[:n]
		Merge(out, bufs.tmp, parts)
		recordFences(merged.fences, out, at)
		if err := store.writeAt(out, merged.off+int64(at)*keyBytes, bufs.rawBuf()); err != nil {
			return runHandle{}, err
		}
		at += n
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
