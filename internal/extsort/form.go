// Run formation and pre-merging. Sort's own goroutine reads the stream
// into runs, sorts a batch of RunBatch runs through the run sorter,
// and hands the batch to a pool of background workers; each worker
// checks that every run is sorted, merges its batch into one long
// merge leaf (and spills the leaf when the store placed it on disk)
// while the caller is already reading and sorting the next batch. The run
// buffers of a merged batch go back to the caller for reuse, and the
// fixed number of batches bounds how far the caller can run ahead of
// the workers.

package extsort

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
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

// mergeJob asks a worker to merge a sorted batch into its leaf: a
// resident buffer to fill, or a reserved spill segment to write.
type mergeJob struct {
	batch *runBatch
	leaf  runHandle
}

// preMerger is the background worker pool.
type preMerger struct {
	store *runStore
	// jobs and free hold the batches between them, so a send on either
	// never blocks.
	jobs chan mergeJob
	free chan *runBatch

	wg      sync.WaitGroup
	cancel  context.CancelFunc
	errOnce sync.Once
	err     error
}

// formRuns chunks src into runSize runs, sorts them RunBatch at a time
// through the run sorter, and has the pre-merge workers check and merge
// every batch into one leaf of the store. It returns once every worker
// has exited; a worker's failure (an unsorted run, a spill write) wins
// over the cancellation it causes.
func formRuns(ctx context.Context, src Reader, sorter RunSorter, p params, store *runStore, stats *Stats, met *metrics) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := runtime.GOMAXPROCS(0)
	// One batch per worker, one being filled, and one queued, so the
	// caller keeps reading while every worker is busy. A batch
	// allocates its run buffers on first use.
	batches := workers + 2
	pm := &preMerger{
		store:  store,
		jobs:   make(chan mergeJob, batches),
		free:   make(chan *runBatch, batches),
		cancel: cancel,
	}
	for range batches {
		pm.free <- &runBatch{}
	}
	pm.wg.Add(workers)
	for range workers {
		go pm.work(ctx)
	}
	err := pm.feed(ctx, src, sorter, p, stats, met)
	t0 := time.Now()
	close(pm.jobs)
	pm.wg.Wait()
	stats.MergeNs += time.Since(t0).Nanoseconds()
	if pm.err != nil {
		return pm.err
	}
	if err == nil {
		// A cancellation after the last batch was queued may have left
		// leaves unmerged.
		err = ctx.Err()
	}
	return err
}

// feed is the caller-goroutine half: every Reader.Read and
// RunSorter.SortRuns call happens here, one at a time.
func (pm *preMerger) feed(ctx context.Context, src Reader, sorter RunSorter, p params, stats *Stats, met *metrics) error {
	for {
		b, err := pm.take(ctx)
		if err != nil {
			return err
		}
		b.runs = b.runs[:0]
		var rerr error
		for len(b.runs) < p.RunBatch && rerr == nil {
			if rerr = ctx.Err(); rerr != nil {
				break
			}
			t0 := time.Now()
			var run []Key
			run, rerr = readRun(src, b.slot(len(b.runs), p.runSize))
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
		}
		if rerr != nil && !errors.Is(rerr, errEOF) {
			return rerr
		}
		if len(b.runs) > 0 {
			if err := pm.sortAndSubmit(ctx, b, sorter, stats, met); err != nil {
				return err
			}
		}
		if rerr != nil {
			return nil // clean end of stream
		}
	}
}

// take returns an idle batch, waiting for a worker to release one.
func (pm *preMerger) take(ctx context.Context) (*runBatch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case b := <-pm.free:
		return b, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// sortAndSubmit sorts one batch, places its leaf in the store — in
// input order, which keeps the spill layout and the accounting
// deterministic — and queues it for a worker.
func (pm *preMerger) sortAndSubmit(ctx context.Context, b *runBatch, sorter RunSorter, stats *Stats, met *metrics) error {
	t0 := time.Now()
	if err := sorter.SortRuns(ctx, b.runs); err != nil {
		return err
	}
	d := time.Since(t0).Nanoseconds()
	stats.RunSortNs += d
	if met != nil {
		met.runSortNs.Observe(d)
	}
	n := 0
	for _, run := range b.runs {
		n += len(run)
	}
	pm.jobs <- mergeJob{batch: b, leaf: pm.store.place(n)}
	return nil
}

// work merges queued batches until the queue closes. After a failure
// or cancellation it only recycles what is still queued.
func (pm *preMerger) work(ctx context.Context) {
	defer pm.wg.Done()
	var bufs mergeBufs
	for job := range pm.jobs {
		if ctx.Err() == nil {
			if err := pm.merge(job, &bufs); err != nil {
				pm.fail(err)
			}
		}
		pm.free <- job.batch
	}
}

// merge checks that every run of the job's batch is sorted, merges the
// batch into its leaf and records the leaf's fences. A leaf with no
// resident buffer is merged into bufs.out and written to its spill
// segment. The worker's merge scratch and spill buffer hold one leaf,
// at most RunBatch·runSize keys, each.
func (pm *preMerger) merge(job mergeJob, bufs *mergeBufs) error {
	for _, run := range job.batch.runs {
		if !sortedKeys(run) {
			return fmt.Errorf("%w (run of %d keys)", ErrRunUnsorted, len(run))
		}
	}
	leaf := job.leaf
	bufs.tmp = ensure(bufs.tmp, leaf.count)
	out := leaf.mem
	if out == nil {
		bufs.out = ensure(bufs.out, leaf.count)
		out = bufs.out[:leaf.count]
	}
	Merge(out, bufs.tmp, job.batch.runs)
	recordFences(leaf.fences, out, 0)
	if leaf.mem != nil {
		return nil
	}
	if err := pm.store.writeAt(out, leaf.off, bufs.rawBuf()); err != nil {
		return err
	}
	pm.store.spilled(leaf.count)
	return nil
}

// fail records the first worker error and stops the pipeline.
func (pm *preMerger) fail(err error) {
	pm.errOnce.Do(func() {
		pm.err = err
		pm.cancel()
	})
}
