// The large-request lane: SubmitStream sorts key streams of unbounded
// length through the server's own admission, batching and plan
// machinery. The stream is chunked into runs no larger than the
// biggest serving network; each run rides the normal Submit path —
// the planner maps it to the cheapest covering certified network, it
// batches with whatever other traffic shares that bucket, and the
// columnar replay sorts it — and the extsort tier k-way merges the
// sorted runs. Where an oversized Submit would shed with ErrTooLarge,
// SubmitStream degrades gracefully: any input length is admitted, one
// run at a time, and bucket overload is absorbed by backing off and
// resubmitting the run instead of surfacing ErrQueueFull to the
// caller.

package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"productsort/internal/extsort"
	"productsort/internal/obs"
)

// streamRetryFloor/Cap bound the queue-full backoff: resubmission
// starts fast (the bucket may drain in microseconds) and decays to a
// gentle poll so a saturated server sees run-at-a-time pressure, not a
// retry storm.
const (
	streamRetryFloor = 50 * time.Microsecond
	streamRetryCap   = 5 * time.Millisecond
)

// streamWindow is the default number of runs SubmitStream keeps in
// flight through the server, its default for extsort.Config.RunBatch.
// extsort would derive a kernel batch from the memory budget instead:
// 170 runs of 1024 keys, about 2,700 of 64 keys — that many concurrent
// requests would swamp the buckets.
const streamWindow = 16

// SubmitStream drains src, sorts it through the serving path, and
// writes the fully sorted stream to dst. Unlike Submit it never sheds:
// requests larger than any serving network become multiple runs, and
// ErrQueueFull inside the run lane becomes backoff-and-resubmit. It
// returns the extsort accounting (runs, merge passes, spill traffic) or
// the first hard error (context, source, sink, server closed, compile
// failure). Runs are at most min(1024, MaxKeys) keys, one request each;
// cfg.RunBatch is how many are in flight at once (default 16), and
// cfg.Metrics receives the extsort.* instruments (default the server's
// registry, Server.Metrics).
func (s *Server) SubmitStream(ctx context.Context, src extsort.Reader, dst extsort.Writer, cfg extsort.Config) (*extsort.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sorter := &streamRunSorter{
		srv:     s,
		retries: s.met.Counter("serve.stream.queue_retries"),
	}
	s.met.Counter("serve.stream.submitted").Inc()
	if cfg.RunBatch == 0 {
		cfg.RunBatch = streamWindow
	}
	if cfg.Metrics == nil {
		cfg.Metrics = s.met
	}
	return extsort.Sort(ctx, src, dst, sorter, cfg)
}

// streamRunSorter sorts runs by submitting each as a normal request:
// run-at-a-time admission through the same planner, buckets and
// worker pool as every other tenant, so streaming traffic batches with
// (and is bounded like) point traffic.
type streamRunSorter struct {
	srv     *Server
	retries *obs.Counter
}

// MaxRun implements extsort.RunSorter: a run is one request, so the
// largest serving network is the ceiling.
func (rs *streamRunSorter) MaxRun() int { return rs.srv.MaxKeys() }

// SortRuns implements extsort.RunSorter: every run of the batch is
// submitted concurrently (the server's size buckets coalesce them into
// shared flushes) and the sorted replies are copied back in place.
func (rs *streamRunSorter) SortRuns(ctx context.Context, runs [][]extsort.Key) error {
	var wg sync.WaitGroup
	errs := make([]error, len(runs))
	for i, run := range runs {
		wg.Add(1)
		go func(i int, run []Key) {
			defer wg.Done()
			errs[i] = rs.sortRun(ctx, run)
		}(i, run)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sortRun submits one run, backing off and resubmitting on queue-full
// until the context gives up — degradation to run-at-a-time admission
// instead of shedding.
func (rs *streamRunSorter) sortRun(ctx context.Context, run []Key) error {
	backoff := streamRetryFloor
	for {
		out, err := rs.srv.Submit(ctx, run)
		switch {
		case err == nil:
			select {
			case rep := <-out:
				if rep.Err != nil {
					return rep.Err
				}
				copy(run, rep.Keys)
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		case errors.Is(err, ErrQueueFull):
			rs.retries.Inc()
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
			if backoff *= 2; backoff > streamRetryCap {
				backoff = streamRetryCap
			}
		default:
			return err
		}
	}
}
