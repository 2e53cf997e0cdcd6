// Package blocksort extends the sorting algorithm to the practical
// regime where each processor holds a block of keys rather than one
// (keys ≫ processors — the setting in which the paper's Section 1 notes
// multiway algorithms "behave nicely").
//
// It relies on the classic comparator theorem: if every processor first
// sorts its local block and every compare-exchange of a sorting network
// is replaced by a merge-split (the pair merges its two blocks; the low
// side keeps the smaller half, the high side the larger), the network
// sorts the blocked sequence. Because the multiway-merge algorithm is
// oblivious, its compiled program (package schedule) is exactly such a
// network, so the parallel round count is *unchanged* while each round
// moves a block instead of a key. The merge-splits run over the
// program's known-order stream (schedule.Program.KnownOrderComparators):
// the known-order pass's drops are the identity on blocks too
// (THEORY.md §8). The stage-dead drops of the executed stream are proved
// only for keys, so block sort does not take them.
package blocksort

import (
	"fmt"
	"slices"

	"productsort/internal/schedule"
	"productsort/internal/simnet"
)

// Key aliases the machine key type.
type Key = simnet.Key

// Stats reports the work of one blocked sort.
type Stats struct {
	// Rounds is the number of parallel merge-split rounds (the
	// program's compare-exchange phase count; independent of the block
	// size).
	Rounds int
	// MergeSplits is the number of merge-splits executed: one per
	// comparator of the program's known-order stream.
	MergeSplits int
	// KeysMoved counts keys transferred between processors (every
	// merge-split ships one block each way).
	KeysMoved int
}

// Sort sorts keys in place by replaying prog's known-order comparator
// stream with merge-split operators, blockSize keys per processor.
// len(keys) must equal prog.Nodes() × blockSize. On return, keys is
// globally sorted: block i (the keys of snake position i's processor)
// holds the i-th smallest blockSize keys in order.
func Sort(prog *schedule.Program, keys []Key, blockSize int) (Stats, error) {
	var st Stats
	nodes := prog.Nodes()
	if blockSize < 1 {
		return st, fmt.Errorf("blocksort: block size %d < 1", blockSize)
	}
	if len(keys) != nodes*blockSize {
		return st, fmt.Errorf("blocksort: %d keys for %d processors × block %d",
			len(keys), nodes, blockSize)
	}
	// Local pre-sort of every block.
	for p := 0; p < nodes; p++ {
		slices.Sort(keys[p*blockSize : (p+1)*blockSize])
	}
	buf := make([]Key, 2*blockSize)
	comps := prog.KnownOrderComparators()
	for _, c := range comps {
		lo, hi := int(c.Lo)*blockSize, int(c.Hi)*blockSize
		mergeSplit(keys[lo:lo+blockSize], keys[hi:hi+blockSize], buf)
	}
	st.Rounds = prog.Clock().ComparePhases
	st.MergeSplits = len(comps)
	st.KeysMoved = 2 * blockSize * len(comps)
	return st, nil
}

// mergeSplit merges two sorted blocks and splits the result: lo receives
// the smaller half, hi the larger, both sorted.
func mergeSplit(lo, hi, buf []Key) {
	b := buf[:0]
	i, j := 0, 0
	for i < len(lo) && j < len(hi) {
		if lo[i] <= hi[j] {
			b = append(b, lo[i])
			i++
		} else {
			b = append(b, hi[j])
			j++
		}
	}
	b = append(b, lo[i:]...)
	b = append(b, hi[j:]...)
	copy(lo, b[:len(lo)])
	copy(hi, b[len(lo):])
}
