// Locality grouping of the executed stream. The paper's recursion
// (Section 4) sorts independent subgraphs, so most executed comparators
// join two positions of one small aligned block of snake positions,
// yet the program emits them phase-major: each phase sweeps the whole
// slab. Comparators that touch disjoint positions commute, so the
// stream may be list-scheduled block by block instead — every
// position still sees its own comparators in program order, which
// makes the reordered word compute the same function (THEORY.md §13).
// The pass runs lazily next to the known-order pass, never inside
// Compile, and checkProjection verifies each grouped stream it emits.

package schedule

import "fmt"

// groupBlock is the width, in snake positions, of the aligned blocks
// the executed stream is grouped by. One block of an 88-set column
// slab is 64 × 88 keys = 44 KB, inside a 48 KB L1d. At K₂¹⁰ and 85
// sets the AVX-512 kernel measured 0.18 ns per comparator-lane at 64
// and 0.25 ns at 16, 32 and 128 (2-vCPU Xeon).
const groupBlock = 64

// kernelChunk bounds the comparators one assembly call replays. The
// vector kernels cannot be preempted asynchronously, so a stop-the-
// world request would spin until a long call returns; at ~0.2 ns per
// comparator-lane and ~100 lanes a chunk ends within ~0.1 ms.
const kernelChunk = 4096

// blockOf returns the aligned size-block block both ends of c lie in,
// or -1 when c joins two blocks.
func blockOf(c Comparator, block int32) int32 {
	if b := c.Lo / block; b == c.Hi/block {
		return b
	}
	return -1
}

// groupByBlock list-schedules a program-order stream over n positions
// (comps, with index[k] naming comps[k] in the unpruned stream) so that
// each aligned size-block block's ready comparators drain together. A comparator is ready
// once every earlier comparator touching either of its positions has
// been emitted. The pass emits the earliest unemitted comparator — it
// is always ready, since everything before it is out — and, when that
// comparator is local to a block, every comparator of that block that
// is or becomes ready before it moves on. O(m) time; a network of at
// most one block keeps its program order.
func groupByBlock(comps []Comparator, index []int32, n int, block int32) ([]Comparator, []int32) {
	m := len(comps)
	if n <= int(block) || m == 0 {
		return comps, index
	}
	// succ[2k] and succ[2k+1] are the next comparators after k that
	// touch its Lo and its Hi; wait[k] counts k's unemitted
	// predecessors, one per position an earlier comparator touches.
	succ := make([]int32, 2*m)
	wait := make([]uint8, m)
	last := make([]int32, n)
	for i := range last {
		last[i] = -1
	}
	link := func(pos int32, k int32) {
		if j := last[pos]; j >= 0 {
			if comps[j].Lo == pos {
				succ[2*j] = k
			} else {
				succ[2*j+1] = k
			}
			wait[k]++
		}
		last[pos] = k
	}
	for k := range comps {
		succ[2*k], succ[2*k+1] = -1, -1
		link(comps[k].Lo, int32(k))
		link(comps[k].Hi, int32(k))
	}

	ready := make([][]int32, (n+int(block)-1)/int(block)) // per block, FIFO
	done := make([]bool, m)
	outC := make([]Comparator, 0, m)
	outI := make([]int32, 0, m)
	emit := func(k int32) {
		done[k] = true
		outC = append(outC, comps[k])
		outI = append(outI, index[k])
		for _, s := range succ[2*k : 2*k+2] {
			if s < 0 {
				continue
			}
			if wait[s]--; wait[s] == 0 {
				if b := blockOf(comps[s], block); b >= 0 {
					ready[b] = append(ready[b], s)
				}
			}
		}
	}
	for next := 0; next < m; next++ {
		if done[next] {
			continue
		}
		emit(int32(next))
		b := blockOf(comps[next], block)
		if b < 0 {
			continue
		}
		for len(ready[b]) > 0 {
			k := ready[b][0]
			ready[b] = ready[b][1:]
			if !done[k] {
				emit(k)
			}
		}
	}
	return outC, outI
}

// checkProjection verifies that the grouped stream (gcomps, gindex)
// computes the same function as the program-order stream (comps,
// index): it must hold the same comparators, each under its own index,
// and every position must see the comparators touching it in program
// order. By the projection lemma (THEORY.md §13) two such words agree
// on every input, so a certificate of the program-order set carries
// over to the grouped order.
func checkProjection(comps []Comparator, index []int32, gcomps []Comparator, gindex []int32, n int) error {
	if len(gcomps) != len(comps) || len(gindex) != len(index) || len(index) != len(comps) {
		return fmt.Errorf("schedule: grouped stream has %d comparators, program order %d", len(gcomps), len(comps))
	}
	maxIdx := int32(-1)
	for _, f := range index {
		maxIdx = max(maxIdx, f)
	}
	at := make([]int32, maxIdx+1) // at[f] = 1 + position of index f in program order
	for k, f := range index {
		if f < 0 || (k > 0 && f <= index[k-1]) {
			return fmt.Errorf("schedule: program-order index %d at %d is negative or out of order", f, k)
		}
		at[f] = int32(k) + 1
	}
	last := make([]int32, n)
	for i := range last {
		last[i] = -1
	}
	for k, f := range gindex {
		if f < 0 || f > maxIdx || at[f] == 0 {
			return fmt.Errorf("schedule: grouped comparator %d has index %d outside the executed set", k, f)
		}
		c := gcomps[k]
		if c != comps[at[f]-1] {
			return fmt.Errorf("schedule: grouped comparator %d is (%d,%d), index %d names (%d,%d)",
				k, c.Lo, c.Hi, f, comps[at[f]-1].Lo, comps[at[f]-1].Hi)
		}
		at[f] = 0 // each executed comparator appears once
		for _, pos := range [2]int32{c.Lo, c.Hi} {
			if f <= last[pos] {
				return fmt.Errorf("schedule: grouped comparator %d (index %d) runs after index %d at position %d",
					k, f, last[pos], pos)
			}
			last[pos] = f
		}
	}
	return nil
}

// lowerExecuted groups a program-order executed stream, checks the
// grouping and cuts the kernel chunks: the one lowering every program
// and every WithExecuted variant goes through.
func lowerExecuted(comps []Comparator, index []int32, n int) (gcomps []Comparator, gindex, ends []int32, err error) {
	gcomps, gindex = groupByBlock(comps, index, n, groupBlock)
	if err := checkProjection(comps, index, gcomps, gindex, n); err != nil {
		return nil, nil, nil, err
	}
	return gcomps, gindex, chunkEnds(gcomps), nil
}

// chunkEnds splits a stream into consecutive chunks of at most
// kernelChunk comparators, cutting between groups — runs of
// comparators local to one block — unless a single group is longer
// than a chunk. It returns each chunk's end offset.
func chunkEnds(comps []Comparator) []int32 {
	var ends []int32
	for start := 0; start < len(comps); {
		end := min(start+kernelChunk, len(comps))
		if end < len(comps) {
			cut := end
			for b := blockOf(comps[cut], groupBlock); cut > start && b >= 0 && b == blockOf(comps[cut-1], groupBlock); {
				cut--
			}
			if cut > start {
				end = cut
			}
		}
		ends = append(ends, int32(end))
		start = end
	}
	return ends
}
