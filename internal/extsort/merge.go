// The k-way merge: a loser tree over run cursors, the software image
// of the paper's Section 3 multiway merge. The tree's internal nodes
// hold the losers of the matches along each winner's path to the root,
// so emitting the minimum and reseating its replacement costs exactly
// ⌈log₂ k⌉ comparisons — the same per-level compare cascade the
// merging network performs in one parallel step, serialized. Cursors
// hand the tree whole blocks, so the per-key work is slice indexing and
// the cascade; a cursor is called once per block.
//
// When the leaf count exceeds the fan-in, earlier passes merge groups
// of leaves into intermediate spill segments (bounded memory: a pass
// holds one read buffer per spilled input and one output block, never
// a whole run) until the final merge fits the fan-in — exactly the
// recursive composition the agglomeration law certifies (THEORY.md
// §15). The final merge is split into key ranges merged side by side
// (split.go).

package extsort

import (
	"context"
	"math"
)

// outBlockKeys is the merged-output block size: the granularity of
// Writer.Write calls, context checks, and intermediate segment writes.
const outBlockKeys = 4096

// mergeRuns merges every leaf in the store into dst, in as many passes
// as the fan-in demands. The final pass is split into key ranges that
// merge side by side.
func mergeRuns(ctx context.Context, store *runStore, dst Writer, p params, stats *Stats, met *metrics) error {
	handles := store.runs
	if len(handles) == 0 {
		return nil // empty input: nothing to write
	}
	for len(handles) > p.fanIn {
		var err error
		if handles, err = mergePass(ctx, store, handles, p.fanIn, stats, met); err != nil {
			return err
		}
		stats.MergePasses++
	}
	// Final pass: fan the surviving leaves into the sink.
	stats.MergePasses++
	observeFanIn(len(handles), stats, met)
	// A chunk is about one pre-merge leaf, but at least two fence
	// strides per leaf and one output block: every chunk costs a cut
	// and a read per spilled leaf, and its size is only within a fence
	// stride per leaf of its target.
	chunkKeys := max(p.RunBatch*p.runSize, 2*fenceStride*len(handles), outBlockKeys)
	plan := newSplitPlan(store, handles, chunkKeys)
	stats.MergeChunks = plan.chunks()
	return mergeChunks(ctx, dst, plan.chunks(), plan.maxChunk, plan.opener)
}

// mergePass runs one intermediate pass over handles (more than fanIn of
// them) and returns the survivors. When one merge of the first
// len−fanIn+1 leaves suffices, that is all it does — the final merge
// then has exactly fanIn inputs — so only the leaves that must be
// merged twice are read twice. Otherwise it is a full pass over groups
// of fanIn. Merged leaves keep their place in input order.
func mergePass(ctx context.Context, store *runStore, handles []runHandle, fanIn int, stats *Stats, met *metrics) ([]runHandle, error) {
	if excess := len(handles) - fanIn; excess < fanIn {
		merged, err := mergeToSpill(ctx, store, handles[:excess+1], stats, met)
		if err != nil {
			return nil, err
		}
		return append([]runHandle{merged}, handles[excess+1:]...), nil
	}
	next := make([]runHandle, 0, (len(handles)+fanIn-1)/fanIn)
	for lo := 0; lo < len(handles); lo += fanIn {
		group := handles[lo:min(lo+fanIn, len(handles))]
		if len(group) == 1 {
			next = append(next, group[0])
			continue
		}
		merged, err := mergeToSpill(ctx, store, group, stats, met)
		if err != nil {
			return nil, err
		}
		next = append(next, merged)
	}
	return next, nil
}

// mergeToSpill merges one group of leaves into a new spill segment.
func mergeToSpill(ctx context.Context, store *runStore, group []runHandle, stats *Stats, met *metrics) (runHandle, error) {
	observeFanIn(len(group), stats, met)
	count := countKeys(group)
	merged := runHandle{off: store.reserve(count), count: count, fences: make([]Key, fenceCount(count))}
	// One chunk: the split merge's cursors over whole leaves.
	streams, _, err := newSplitPlan(store, group, count).opener()(0)
	if err != nil {
		return runHandle{}, err
	}
	lt := newLoserTree(streams, count)
	block := make([]Key, outBlockKeys)
	raw := make([]byte, outBlockKeys*keyBytes)
	for at := 0; ; {
		n := lt.fill(block)
		if err := lt.fail(); err != nil {
			return runHandle{}, err
		}
		if n == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return runHandle{}, err
		}
		recordFences(merged.fences, block[:n], at)
		if err := store.writeAt(block[:n], merged.off+int64(at)*keyBytes, raw); err != nil {
			return runHandle{}, err
		}
		at += n
	}
	store.spilled(count)
	return merged, nil
}

// mergeInto merges sorted in-memory runs into out, which must hold
// exactly their total length.
func mergeInto(out []Key, runs [][]Key) {
	streams := make([]keyStream, len(runs))
	for i, run := range runs {
		streams[i] = &memStream{keys: run}
	}
	newLoserTree(streams, len(out)).fill(out)
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

// exhaustedKey is the head an exhausted leaf carries: no live key is
// larger. A live key equal to it may lose to an exhausted leaf, but
// then every key left is exhaustedKey, so emitting it is still right;
// the tree stops after emitting exactly the keys its streams hold.
const exhaustedKey = Key(math.MaxInt64)

// loserTree is the tournament the merge runs. Leaves are streams
// (padded to a power of two with exhausted dummies); internal node j
// holds the key and leaf index of the loser of the match played there,
// and the overall winner rides in registers. Keys carry no payload, so
// which of two equal keys wins cannot change the output; that frees
// each match to be a branch-free min/max.
type loserTree struct {
	k       int // padded leaf count, power of two
	keys    []Key
	idx     []int // internal nodes 1..k-1
	winKey  Key
	winIdx  int
	left    int     // keys still to emit
	blocks  [][]Key // each leaf's current block
	pos     []int   // each leaf's next position in its block
	streams []keyStream
	err     error // the first stream failure; the merge stops at it
}

// newLoserTree builds the tournament over streams holding total keys
// between them and plays the initial matches.
func newLoserTree(streams []keyStream, total int) *loserTree {
	k := 1
	for k < len(streams) {
		k <<= 1
	}
	lt := &loserTree{
		k:       k,
		keys:    make([]Key, k),
		idx:     make([]int, k),
		left:    total,
		blocks:  make([][]Key, k),
		pos:     make([]int, k),
		streams: streams,
	}
	// Play the full bracket bottom-up: node j's winner moves up, its
	// loser stays at j.
	winKey := make([]Key, 2*k)
	winIdx := make([]int, 2*k)
	for i := 0; i < k; i++ {
		winKey[k+i], winIdx[k+i] = lt.advance(i), i
	}
	for j := k - 1; j >= 1; j-- {
		a, b := 2*j, 2*j+1
		if winKey[b] < winKey[a] {
			a, b = b, a
		}
		winKey[j], winIdx[j] = winKey[a], winIdx[a]
		lt.keys[j], lt.idx[j] = winKey[b], winIdx[b]
	}
	lt.winKey, lt.winIdx = winKey[1], winIdx[1]
	return lt
}

// advance refills leaf i's block from its stream and returns the new
// head, or exhaustedKey once the stream is exhausted (or has failed).
func (lt *loserTree) advance(i int) Key {
	if i >= len(lt.streams) {
		return exhaustedKey
	}
	b := lt.streams[i].next()
	lt.blocks[i], lt.pos[i] = b, 1
	if len(b) == 0 {
		if err := lt.streams[i].fail(); err != nil && lt.err == nil {
			lt.err = err
		}
		return exhaustedKey
	}
	return b[0]
}

// fill pops up to len(out) keys into out in merged order and returns
// how many it wrote: fewer than len(out) only once every key is out or
// a stream has failed (see fail), so what was written before a failure
// is a true prefix of the merge. Each pop reseats the winner's
// replacement along its root path, the ⌈log₂ k⌉-compare cascade.
func (lt *loserTree) fill(out []Key) int {
	if lt.err != nil {
		return 0
	}
	k, keys, idx := lt.k, lt.keys, lt.idx
	key, i := lt.winKey, lt.winIdx
	out = out[:min(len(out), lt.left)]
	n := 0
	for ; n < len(out); n++ {
		out[n] = key
		leaf := i
		if b, p := lt.blocks[leaf], lt.pos[leaf]; p < len(b) {
			key = b[p]
			lt.pos[leaf] = p + 1
		} else if key = lt.advance(leaf); lt.err != nil {
			n++
			break
		}
		for j := (leaf + k) >> 1; j >= 1; j >>= 1 {
			// Branch-free match: m is all ones when the resident loser
			// beats the rising key, and the pair then swaps.
			lk, li := keys[j], idx[j]
			m := -b2i(lk < key)
			wi := i ^ ((i ^ li) & m)
			keys[j], idx[j] = max(lk, key), li^i^wi
			key, i = min(lk, key), wi
		}
	}
	lt.winKey, lt.winIdx = key, i
	lt.left -= n
	return n
}

// b2i is 1 for true and 0 for false; it compiles to a flag set, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fail surfaces the first stream read error, distinguishing a failed
// spill read from a cleanly exhausted merge.
func (lt *loserTree) fail() error { return lt.err }
