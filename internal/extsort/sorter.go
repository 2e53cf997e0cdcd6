// Run sorters: the certified-network implementation the production
// tier uses, and a stdlib oracle for baselines and tests.

package extsort

import (
	"context"
	"slices"

	"productsort/internal/schedule"
)

// NetworkSorter sorts runs through one compiled (and certifiable)
// phase program via the columnar batch replay: a whole batch of runs
// becomes one program walk, runs shorter than the network pad with
// sentinels (THEORY.md §12), and pooled column slabs keep the warm
// path allocation-free per run. Safe for concurrent use.
type NetworkSorter struct {
	prog    *schedule.Program
	buf     *schedule.ColumnBuffer
	workers int
}

// NewNetworkSorter binds a compiled program; workers < 1 lets the
// batch replay pick its own parallelism.
func NewNetworkSorter(prog *schedule.Program, workers int) *NetworkSorter {
	return &NetworkSorter{prog: prog, buf: schedule.NewColumnBuffer(), workers: workers}
}

// MaxRun implements RunSorter: runs pad up to the network's node count.
func (ns *NetworkSorter) MaxRun() int { return ns.prog.Nodes() }

// SortRuns implements RunSorter through schedule.RunBatchColumnar.
func (ns *NetworkSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return schedule.RunBatchColumnar(ns.prog, runs, ns.workers, ns.buf)
}

// SliceSorter is the stdlib oracle run sorter: slices.Sort per run. Max
// bounds the run size it accepts (<= 0 means unbounded); it exists for
// baselines and for exercising the merge independently of the
// network machinery.
type SliceSorter struct {
	Max int
}

// MaxRun implements RunSorter.
func (s SliceSorter) MaxRun() int {
	if s.Max <= 0 {
		return 1 << 30
	}
	return s.Max
}

// SortRuns implements RunSorter.
func (s SliceSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	for _, run := range runs {
		if err := ctx.Err(); err != nil {
			return err
		}
		slices.Sort(run)
	}
	return nil
}
