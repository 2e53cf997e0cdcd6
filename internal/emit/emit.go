// Package emit hosts alternative network-family emitters: constructions
// that build comparator networks directly — not by recording the paper's
// generalized product-network algorithm — and lower them into the same
// schedule.Program IR that every backend, the serve planner, and the
// 0-1 certifier already consume.
//
// An emitted network lives in "line space": w horizontal lines, each
// carrying one key, crossed by columns of node-disjoint comparators.
// The host network is a 1-D path product (r = 1), whose snake rank is
// the identity permutation, so line index, node id, and snake position
// all coincide. That single choice is what makes the subsystem cheap:
// Validate, ExecBackend, the columnar batch kernel, and cert.Run all
// work on emitted programs unchanged, and LoweredComparators is a
// straight copy of the column stream.
//
// Two families are implemented on top of this package:
//
//   - emit/multiway — the enhanced multiway sorting network built from
//     n-sorter primitives (arXiv 1407.0961): recursively sort s blocks,
//     then merge the s sorted lists with strided n-sorters plus a
//     parity-bounded odd-even-transposition cleanup.
//   - emit/periodic — the periodic balanced merging network
//     (arXiv 1409.1749, construction of Dowd–Perl–Rudolph–Saks): a
//     fixed period of log N comparator columns replayed log N times.
package emit

import (
	"fmt"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
)

// Family names the emitted network families the rest of the repo keys
// on (serve plan metadata, bench artifacts, root API dispatch). The
// paper's own construction is FamilyProduct; it is defined here so
// every layer spells the default the same way.
const (
	FamilyProduct  = "product"
	FamilyMultiway = "multiway"
	FamilyPeriodic = "periodic"
)

// Host returns the 1-D path product network that carries an emitted
// program over `lines` keys. With r = 1 the snake rank is the identity,
// so node id == snake position == line index. Builder.Program builds
// one per emitted program; nothing else needs it: the serve planner
// ranks an emitted candidate by its line count and builds no host, so
// a server pays for one only when a bucket's first flush emits the
// program.
func Host(lines int) *product.Network {
	net, err := product.New(graph.Path(lines), 1)
	if err != nil {
		// r = 1 over a non-empty path cannot fail; NewBuilder already
		// rejected lines < 1.
		panic(err)
	}
	return net
}

// Builder accumulates comparator columns in line space. A column is one
// parallel step: its comparators must be node-disjoint, which the final
// schedule.Program.Validate pass enforces. Every column is charged one
// round (emitted comparators are wired directly; there is no routed
// fallback in line space).
type Builder struct {
	lines int
	cols  [][][2]int
}

// NewBuilder returns an empty builder over `lines` lines. lines must be
// at least 1.
func NewBuilder(lines int) *Builder {
	if lines < 1 {
		panic(fmt.Sprintf("emit: %d lines", lines))
	}
	return &Builder{lines: lines}
}

// Lines returns the builder's line count.
func (b *Builder) Lines() int { return b.lines }

// Columns returns the number of columns emitted so far — the depth (and
// round count) of the final program. The index of the next column to be
// created is exactly this value, which recursive constructions use to
// align independent sub-networks onto shared columns.
func (b *Builder) Columns() int { return len(b.cols) }

// Add places the comparator (lo, hi) — min to lo, max to hi — into
// column col, growing the column list as needed. Callers are free to
// interleave independent sub-constructions by targeting earlier
// columns; disjointness within a column is validated once at Program
// time.
func (b *Builder) Add(col, lo, hi int) {
	if lo < 0 || hi < 0 || lo >= b.lines || hi >= b.lines || lo == hi {
		panic(fmt.Sprintf("emit: comparator (%d,%d) on %d lines", lo, hi, b.lines))
	}
	for len(b.cols) <= col {
		b.cols = append(b.cols, nil)
	}
	b.cols[col] = append(b.cols[col], [2]int{lo, hi})
}

// Sorter lowers one w-wide n-sorter primitive onto the lines
// lo, lo+stride, ..., lo+(w-1)*stride, starting at column start, and
// returns the first free column after it. The lowering is Batcher's
// odd-even mergesort in its iterative column form, padded to the next
// power of two with virtual lines above the top: a comparator touching
// a virtual line would compare against +inf and is dropped as a no-op.
// Columns that end up empty after dropping are compressed away, so a
// w-sorter's column count (and round charge) is exactly its effective
// depth.
func (b *Builder) Sorter(lo, w, stride, start int) int {
	if w <= 1 {
		return start
	}
	w2 := 1
	for w2 < w {
		w2 <<= 1
	}
	col := start
	for p := 1; p < w2; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			used := false
			for j := k % p; j+k < w2; j += 2 * k {
				for i := 0; i < k; i++ {
					a, c := i+j, i+j+k
					if c >= w {
						continue // virtual line: compare vs +inf, no-op
					}
					if (a / (2 * p)) == (c / (2 * p)) {
						b.Add(col, lo+a*stride, lo+c*stride)
						used = true
					}
				}
			}
			if used {
				col++
			}
		}
	}
	return col
}

// SorterDepth returns the column count Sorter(…, w, …) occupies, without
// emitting anything.
func SorterDepth(w int) int {
	b := NewBuilder(w)
	return b.Sorter(0, w, 1, 0)
}

// Program freezes the builder's columns into a validated
// schedule.Program under the given engine name and canonical signature.
// Each column becomes one OpCompareExchange with Cost 1 and Dim 1 (the
// host is one-dimensional); empty columns are skipped.
func (b *Builder) Program(engine, sig string) (*schedule.Program, error) {
	ops := make([]schedule.Op, 0, len(b.cols))
	for _, col := range b.cols {
		if len(col) == 0 {
			continue
		}
		ops = append(ops, schedule.Op{Kind: schedule.OpCompareExchange, Pairs: col, Cost: 1, Dim: 1})
	}
	return schedule.NewEmittedProgram(Host(b.lines), engine, sig, ops)
}

// PowerOfTwo reports whether n is a positive power of two — the size
// family both emitters support.
func PowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }
