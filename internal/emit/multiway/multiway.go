// Package multiway emits the enhanced multiway sorting network built
// from n-sorter primitives (arXiv 1407.0961) into the schedule IR.
//
// The construction sorts a power-of-two number of lines with a
// power-of-two sorter width s: split the input into s contiguous
// blocks, sort each recursively (the recursion bottoms out in one
// Batcher-lowered s-sorter), then merge the s sorted blocks with an
// odd/even strided recursion — merge the even-indexed window positions
// and the odd-indexed window positions independently, then run 2s
// alternating odd-even-transposition cleanup layers over the window.
//
// Why the cleanup suffices (THEORY.md §16 carries the full proof): by
// the 0-1 principle consider block b holding z_b zeros. The even
// subsequence receives ⌈z_b/2⌉ of them, the odd subsequence ⌊z_b/2⌋,
// so after the sub-merges the interleaved window is sorted except for
// an alternating 0/1 band of width 2d-1, where d ≤ s is the number of
// blocks with odd z_b. Odd-even transposition sorts a width-W dirty
// band in at most W+1 alternating layers (comparators outside the band
// are no-ops), and 2d ≤ 2s, so 2s layers always finish the merge.
package multiway

import (
	"fmt"
	"math/bits"

	"productsort/internal/emit"
	"productsort/internal/schedule"
)

// DefaultSorter is the n-sorter width used by Emit: wide enough that
// small requests sort in one primitive (a 4-sorter is 3 columns),
// narrow enough that the Batcher lowering of the primitive stays flat.
const DefaultSorter = 4

// Engine names the emitted family for a given sorter width, e.g.
// "multiway4". It is the schedule.Program engine string and the label
// bench artifacts key on.
func Engine(sorter int) string { return fmt.Sprintf("multiway%d", sorter) }

// Signature returns the canonical signature of the emitted program.
func Signature(lines, sorter int) string {
	return fmt.Sprintf("emit|multiway|s=%d|n=%d", sorter, lines)
}

// Emit builds the multiway n-sorter network over lines keys with the
// default sorter width.
func Emit(lines int) (*schedule.Program, error) { return EmitN(lines, DefaultSorter) }

// EmitN builds the multiway n-sorter network over lines keys using
// sorter-wide primitives. lines and sorter must be powers of two with
// sorter >= 2 (the recursion interleaves block halves exactly, so
// every level divides evenly).
func EmitN(lines, sorter int) (*schedule.Program, error) {
	if lines < 2 || !emit.PowerOfTwo(lines) {
		return nil, fmt.Errorf("multiway: %d lines: power of two >= 2 required", lines)
	}
	if sorter < 2 || !emit.PowerOfTwo(sorter) {
		return nil, fmt.Errorf("multiway: sorter width %d: power of two >= 2 required", sorter)
	}
	b := emit.NewBuilder(lines)
	sortRec(b, 0, lines, sorter, 0)
	return b.Program(Engine(sorter), Signature(lines, sorter))
}

// Rounds returns the column depth of EmitN(lines, sorter) without
// building a program — the planner's predicted cost for this family.
// lines and sorter are powers of two, as EmitN requires.
func Rounds(lines, sorter int) int {
	if lines <= 1 {
		return 0
	}
	if lines <= sorter {
		return sorterDepth(lines)
	}
	m := lines / sorter
	merge := sorterDepth(sorter)
	for ; m > 1; m /= 2 {
		merge += 2 * sorter
	}
	return Rounds(lines/sorter, sorter) + merge
}

// sorterDepth is the column count of emit.Builder.Sorter over w = 2^t
// lines: Batcher's odd-even mergesort fills every one of its t(t+1)/2
// columns when no line is virtual.
func sorterDepth(w int) int {
	t := bits.Len(uint(w)) - 1
	return t * (t + 1) / 2
}

// sortRec emits a sorter for the contiguous lines [lo, lo+size) starting
// at column col and returns the first free column after it.
func sortRec(b *emit.Builder, lo, size, s, col int) int {
	if size <= 1 {
		return col
	}
	if size <= s {
		return b.Sorter(lo, size, 1, col)
	}
	// Sort the s contiguous blocks in parallel: they touch disjoint
	// lines, so they share columns and the stage ends at the deepest.
	m := size / s
	end := col
	for i := 0; i < s; i++ {
		if e := sortRec(b, lo+i*m, m, s, col); e > end {
			end = e
		}
	}
	return mergeRec(b, lo, s, m, 1, end)
}

// mergeRec merges s sorted blocks of m elements each, laid out
// contiguously in the window lo, lo+stride, ..., lo+(s*m-1)*stride
// (block i holds window positions [i*m, (i+1)*m)). It starts at column
// col and returns the first free column after the merge.
func mergeRec(b *emit.Builder, lo, s, m, stride, col int) int {
	if m == 1 {
		// s single elements: one s-sorter across the stride-spaced lines.
		return b.Sorter(lo, s, stride, col)
	}
	// The even window positions form s sorted blocks of m/2 elements in
	// the doubled-stride space, and likewise the odds; merge both halves
	// in parallel (disjoint lines, shared columns).
	e1 := mergeRec(b, lo, s, m/2, stride*2, col)
	e2 := mergeRec(b, lo+stride, s, m/2, stride*2, col)
	c := e1
	if e2 > c {
		c = e2
	}
	// Cleanup: 2s alternating odd-even-transposition layers across the
	// window close the width-(2d-1), d <= s alternating band the
	// interleave can leave behind.
	w := s * m
	for layer := 0; layer < 2*s; layer++ {
		for i := layer % 2; i+1 < w; i += 2 {
			b.Add(c+layer, lo+i*stride, lo+(i+1)*stride)
		}
	}
	return c + 2*s
}
