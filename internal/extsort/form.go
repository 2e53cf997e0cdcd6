// Run formation and pre-merging. Sort's own goroutine reads the stream
// into runs, sorts a batch of RunBatch runs through the run sorter,
// and queues the batch on the Sort call's merge pool; a worker checks
// that every run is sorted, merges the batch into one long merge leaf
// (and spills the leaf when the store placed it on disk) while the
// caller is already reading and sorting the next batch. The run
// buffers of a merged batch go back to the caller for reuse, and the
// fixed number of batches bounds how far the caller can run ahead of
// the workers.

package extsort

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// runBatch is one batch of runs on its way through sort and pre-merge.
type runBatch struct {
	slots [][]Key // run buffers of runSize keys, allocated on first use
	runs  [][]Key // this round's runs: filled prefixes of slots
}

// slot returns run buffer i, allocating it the first time.
func (b *runBatch) slot(i, runSize int) []Key {
	if i == len(b.slots) {
		b.slots = append(b.slots, make([]Key, runSize))
	}
	return b.slots[i]
}

// formRuns chunks src into runSize runs, sorts them RunBatch at a time
// through the run sorter, and has the pool check and merge every batch
// into one leaf of the store. It returns once every batch is back from
// the pool, so every pre-merge has finished.
func formRuns(ctx context.Context, pool *pool, src Reader, sorter RunSorter, p params, store *runStore, stats *Stats, met *metrics) error {
	// One batch per worker, one being filled, and one queued, so the
	// caller keeps reading while every worker is busy. A batch
	// allocates its run buffers on first use.
	batches := pool.workers + 2
	free := make(chan *runBatch, batches)
	for range batches {
		free <- &runBatch{}
	}
	err := feed(ctx, pool, free, src, sorter, p, store, stats, met)
	t0 := time.Now()
	for range batches {
		<-free
	}
	stats.MergeNs += time.Since(t0).Nanoseconds()
	if err == nil {
		// A cancellation, or a pre-merge's failure, after the last
		// batch was queued may have left leaves unmerged.
		err = ctx.Err()
	}
	return err
}

// feed is the caller-goroutine half: every Reader.Read and
// RunSorter.SortRuns call happens here, one at a time. Every batch it
// takes from free goes back there: from the pool once its task has
// run, or from here when it is not queued.
func feed(ctx context.Context, pool *pool, free chan *runBatch, src Reader, sorter RunSorter, p params, store *runStore, stats *Stats, met *metrics) error {
	for {
		var b *runBatch
		select {
		case b = <-free:
		case <-ctx.Done():
			return ctx.Err()
		}
		err := readBatch(ctx, src, b, p, stats, met) // checks ctx before every read
		eof := errors.Is(err, errEOF)
		if eof {
			err = nil
		}
		if err == nil && len(b.runs) > 0 {
			err = sortBatch(ctx, sorter, b, stats, met)
		}
		// An empty batch is the end of the stream: a batch reads until
		// it is full or the stream ends.
		if err != nil || len(b.runs) == 0 {
			free <- b
			return err
		}
		n := 0
		for _, run := range b.runs {
			n += len(run)
		}
		leaf := store.place(n) // in input order: a deterministic layout
		pool.tasks <- func(bufs *mergeBufs) {
			if ctx.Err() == nil {
				if err := preMerge(store, b.runs, leaf, bufs); err != nil {
					pool.fail(err)
				}
			}
			free <- b
		}
		if eof {
			return nil
		}
	}
}

// readBatch reads up to RunBatch runs from src into b. It returns
// io.EOF at the end of the stream, with the runs read before it.
func readBatch(ctx context.Context, src Reader, b *runBatch, p params, stats *Stats, met *metrics) error {
	b.runs = b.runs[:0]
	for len(b.runs) < p.RunBatch {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		run, err := readRun(src, b.slot(len(b.runs), p.runSize))
		d := time.Since(t0).Nanoseconds()
		stats.RunFormNs += d
		if len(run) > 0 {
			if met != nil {
				met.runFormNs.Observe(d)
			}
			stats.Keys += int64(len(run))
			stats.Runs++
			b.runs = append(b.runs, run)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// sortBatch sorts one batch of runs through the run sorter.
func sortBatch(ctx context.Context, sorter RunSorter, b *runBatch, stats *Stats, met *metrics) error {
	t0 := time.Now()
	if err := sorter.SortRuns(ctx, b.runs); err != nil {
		return err
	}
	d := time.Since(t0).Nanoseconds()
	stats.RunSortNs += d
	if met != nil {
		met.runSortNs.Observe(d)
	}
	return nil
}

// preMerge checks that every run is sorted, merges the runs into their
// leaf and records the leaf's fences. A leaf with no resident buffer is
// merged into bufs.spill and written to its spill segment. The merge
// scratch and the spill buffer hold one leaf, at most RunBatch·runSize
// keys, each.
func preMerge(store *runStore, runs [][]Key, leaf runHandle, bufs *mergeBufs) error {
	for _, run := range runs {
		if !sortedKeys(run) {
			return fmt.Errorf("%w (run of %d keys)", ErrRunUnsorted, len(run))
		}
	}
	bufs.tmp = ensure(bufs.tmp, leaf.count)
	out := leaf.mem
	if out == nil {
		bufs.spill = ensure(bufs.spill, leaf.count)
		out = bufs.spill[:leaf.count]
	}
	Merge(out, bufs.tmp, runs)
	recordFences(leaf.fences, out, 0)
	if leaf.mem != nil {
		return nil
	}
	if err := store.writeAt(out, leaf.off, bufs.rawBuf()); err != nil {
		return err
	}
	store.spilled(leaf.count)
	return nil
}
