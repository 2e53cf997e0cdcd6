// The known-order pass: drop every lowered comparator that can never
// swap. The schedule is oblivious (Section 3.2), so which positions are
// already in order at each point of the stream is a compile-time fact
// the pass can track without keys (THEORY.md §17). It runs once per
// program, lazily inside LoweredComparators, never inside Compile, and
// it rewrites only the lowered stream: Ops, Phases, Size, Depth and
// Rounds keep the paper's numbers.

package schedule

import "math/bits"

// pruneComparators returns the comparators of all (an unpruned lowered
// stream over n snake positions) that the known-order facts do not
// prove to be the identity, and for each kept comparator its index in
// all. A comparator (lo, hi) is dropped when hi is already known ≥ lo:
// min/max then leave both keys where they are, duplicates included.
// A kept comparator rewrites only the two rows and two columns of the
// positions it touches; every other position's key, and so every fact
// between two untouched positions, is unchanged.
func pruneComparators(all []Comparator, n int) (kept []Comparator, index []int32) {
	// Row i of ge holds the positions known to hold a key ≥ the key at
	// i on every input, row i of le those known ≤ it, as words
	// [i*w, (i+1)*w). The matrices are transposes of each other
	// (j ∈ ge[i] ⇔ i ∈ le[j]), so a position's column in one is its
	// row in the other.
	w := (n + 63) / 64
	ge, le := make([]uint64, n*w), make([]uint64, n*w)
	for i := 0; i < n; i++ {
		ge[i*w+i>>6] |= 1 << (i & 63)
		le[i*w+i>>6] |= 1 << (i & 63)
	}
	row := func(m []uint64, i int) []uint64 { return m[i*w : (i+1)*w] }
	scratch := make([]uint64, 4*w)
	geLo, geHi, leLo, leHi := scratch[:w], scratch[w:2*w], scratch[2*w:3*w], scratch[3*w:]
	for f, c := range all {
		a, b := int(c.Lo), int(c.Hi)
		rowGeA, rowGeB := row(ge, a), row(ge, b)
		if rowGeA[b>>6]>>(b&63)&1 != 0 {
			continue
		}
		kept = append(kept, c)
		index = append(index, int32(f))
		rowLeA, rowLeB := row(le, a), row(le, b)
		// For an untouched j: j ≥ min(x_a, x_b) when j ≥ either, and
		// j ≥ max(x_a, x_b) when j ≥ both; dually for ≤.
		for k := range geLo {
			geLo[k] = rowGeA[k] | rowGeB[k]
			geHi[k] = rowGeA[k] & rowGeB[k]
			leLo[k] = rowLeA[k] & rowLeB[k]
			leHi[k] = rowLeA[k] | rowLeB[k]
		}
		// Between the pair itself only lo ≤ hi (and reflexivity) holds.
		setBit(geLo, a, true)
		setBit(geLo, b, true)
		setBit(geHi, a, false)
		setBit(geHi, b, true)
		setBit(leLo, a, true)
		setBit(leLo, b, false)
		setBit(leHi, a, true)
		setBit(leHi, b, true)
		// Column a of ge is row a of le for every other position, so
		// flipping the bits where row a of le changed keeps the
		// matrices transposes of each other.
		flipColumn(ge, w, a, rowLeA, leLo, a, b)
		flipColumn(ge, w, b, rowLeB, leHi, a, b)
		flipColumn(le, w, a, rowGeA, geLo, a, b)
		flipColumn(le, w, b, rowGeB, geHi, a, b)
		copy(rowGeA, geLo)
		copy(rowGeB, geHi)
		copy(rowLeA, leLo)
		copy(rowLeB, leHi)
	}
	return kept, index
}

// flipColumn toggles bit col in row j (w words per row) of m for every
// position j other than a and b whose bit differs between old and cur.
func flipColumn(m []uint64, w, col int, old, cur []uint64, a, b int) {
	word, bit := col>>6, uint64(1)<<(col&63)
	for k := range old {
		d := old[k] ^ cur[k]
		for d != 0 {
			j := k<<6 + bits.TrailingZeros64(d)
			d &= d - 1
			if j != a && j != b {
				m[j*w+word] ^= bit
			}
		}
	}
}

func setBit(row []uint64, i int, on bool) {
	if on {
		row[i>>6] |= 1 << (i & 63)
	} else {
		row[i>>6] &^= 1 << (i & 63)
	}
}
