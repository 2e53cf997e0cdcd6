// Buckets: per-plan batching from backpressure with bounded occupancy.
//
// Each bucket owns its plan's compiled program, built once on the
// first flush (a server never pays for a plan no request rides), and
// bounds its admitted-but-unreplied requests with one counter. A flush
// starts as soon as a worker slot is free and takes every request that
// queued while the bucket waited for one.

package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"productsort/internal/obs"
	"productsort/internal/schedule"
)

// BatchSizeBuckets is the histogram layout for flushed batch sizes.
var BatchSizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// maxBatch caps the requests one flush takes from its queue.
const maxBatch = 64

// drainPoll is how often a draining bucket loop re-reads its counter
// while waiting for in-flight submissions and flushes to settle.
const drainPoll = 50 * time.Microsecond

// bucket batches every request the planner maps to one plan. All
// requests in a bucket pad to the same node count, so any mix of sizes
// it covers can share a flush.
type bucket struct {
	srv  *Server
	plan *Plan

	queue    chan *request
	admitted atomic.Int64 // admitted minus replied; bounded by depth
	depth    int64        // the server's QueueDepth
	cols     *schedule.ColumnBuffer

	// program builds the plan's program on its first call and returns
	// the same program (or build error) on every later one.
	program func() (*schedule.Program, error)

	occupancy *obs.Gauge
	latency   *obs.Histogram
	batchSize *obs.Histogram
	flushes   *obs.Counter
	shed      *obs.Counter
	familyC   *obs.Counter // serve.planner.family.<family>, shared across same-family buckets
}

// newBucket wires a bucket's queue, program and per-bucket instruments
// (serve.bucket.<network>.*).
func newBucket(s *Server, plan *Plan) *bucket {
	prefix := "serve.bucket." + plan.Name()
	return &bucket{
		srv:  s,
		plan: plan,
		// admitted <= QueueDepth bounds queue occupancy too, so the
		// admission send below can never block.
		queue:     make(chan *request, s.cfg.QueueDepth),
		depth:     int64(s.cfg.QueueDepth),
		cols:      schedule.NewColumnBuffer(),
		program:   sync.OnceValues(plan.build),
		occupancy: s.met.Gauge(prefix + ".occupancy"),
		latency:   s.met.Histogram(prefix+".latency_ns", obs.DurationBucketsNs),
		batchSize: s.met.Histogram(prefix+".batchsize", BatchSizeBuckets),
		flushes:   s.met.Counter(prefix + ".flushes"),
		shed:      s.met.Counter(prefix + ".shed"),
		familyC:   s.met.Counter("serve.planner.family." + plan.Family),
	}
}

// reserve claims one occupancy slot: add, and undo when the result is
// over depth. The bound is exact — a racing pair contending for the
// last slot both add, at most one lands at or under depth, the other
// undoes. The only softness is toward shedding: an attempt can see a
// concurrent undo's transient count and shed while a slot is free.
func (b *bucket) reserve() bool {
	if b.admitted.Add(1) <= b.depth {
		return true
	}
	b.admitted.Add(-1)
	return false
}

// release returns one occupancy slot.
func (b *bucket) release() { b.admitted.Add(-1) }

// admit reserves one occupancy slot, then checks the closed flag, then
// enqueues — in that order. The reservation-first protocol is what the
// drain relies on: a submitter that saw closed=false holds a slot that
// every post-Close counter load observes, so the drain sweep cannot
// finish before this request's enqueue lands. Returns ErrQueueFull
// when the bucket is at depth, ErrClosed after Close.
func (b *bucket) admit(req *request) error {
	if !b.reserve() {
		b.shed.Inc()
		return ErrQueueFull
	}
	if b.srv.closed.Load() {
		b.release()
		return ErrClosed
	}
	select {
	case b.queue <- req:
		return nil
	default:
		// Unreachable while the occupancy invariant holds; fail closed
		// rather than block admission.
		b.release()
		b.shed.Inc()
		return ErrQueueFull
	}
}

// loop is the bucket's batching goroutine. Batching comes from
// backpressure alone: the loop waits for a request, then for a worker
// slot, and only then takes whatever queued meanwhile into the flush.
// An idle server flushes every request at once; a batch grows exactly
// while every worker is busy. On drain it keeps flushing until the
// admission counter reads zero — no admitted request, however racy its
// enqueue, is left behind — then exits.
func (b *bucket) loop() {
	defer b.srv.wg.Done()
	for {
		select {
		case req := <-b.queue:
			b.flush(req)
		case <-b.srv.drain:
			// Zero admitted means every admitted request has been
			// replied — none is latent between its reservation and its
			// enqueue, none is queued, none is mid-flush.
			for b.admitted.Load() != 0 {
				select {
				case req := <-b.queue:
					b.flush(req)
				default:
					time.Sleep(drainPoll)
				}
			}
			b.occupancy.Set(0)
			return
		}
	}
}

// flush takes a worker slot, batches first with the requests queued
// while it waited (at most maxBatch in all), and runs the batch on that
// slot. The loop is the queue's only receiver, so every request the
// length read counts is there to take.
func (b *bucket) flush(first *request) {
	b.srv.sem <- struct{}{}
	batch := make([]*request, min(1+len(b.queue), maxBatch))
	batch[0] = first
	for i := 1; i < len(batch); i++ {
		batch[i] = <-b.queue
	}
	b.srv.wg.Add(1)
	go func() {
		defer b.srv.wg.Done()
		defer func() { <-b.srv.sem }()
		b.runFlush(batch)
	}()
}

// runFlush binds the batch and sorts it. A context canceled or expired
// while the request was enqueued is honored here, before the sort; once
// bound, a request rides the flush to completion — a mid-flush
// cancellation neither aborts the sort nor poisons batchmates. The
// bucket's first flush compiles its program; a compile error is kept
// and answers every request of every flush. A panic while building the
// program or replaying the batch answers every batchmate not yet
// replied with ErrFlushPanic and is counted in serve.flush.panics; the
// worker slot comes back and the bucket keeps serving (a panicking
// build panics again on every later flush, since sync.OnceValues
// re-raises it).
func (b *bucket) runFlush(batch []*request) {
	live := batch[:0]
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			b.reply(req, Reply{Err: err, Network: b.plan.Name(), Family: b.plan.Family})
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	if gate := b.srv.flushGate; gate != nil {
		<-gate
	}
	sent := 0 // live[:sent] have their reply
	defer func() {
		if r := recover(); r != nil {
			b.srv.flushPanics.Inc()
			err := fmt.Errorf("%w: %s: %v", ErrFlushPanic, b.plan.Name(), r)
			for _, req := range live[sent:] {
				b.reply(req, Reply{Err: err, Network: b.plan.Name(), Family: b.plan.Family, BatchSize: len(live)})
			}
		}
	}()
	prog, err := b.program()
	if err == nil {
		items := make([][]Key, len(live))
		for i, req := range live {
			items[i] = req.keys
		}
		// Columnar replay: the flush transposes into per-position
		// columns (width = live batch size) and walks the program once
		// for the whole batch; pooled slabs keep the warm path
		// allocation-free per item.
		err = schedule.RunBatchColumnar(prog, items, 1, b.cols)
		b.flushes.Inc()
		b.familyC.Inc()
		b.batchSize.Observe(int64(len(live)))
	}
	for ; sent < len(live); sent++ {
		req := live[sent]
		rep := Reply{Err: err, Network: b.plan.Name(), Family: b.plan.Family, BatchSize: len(live)}
		if err == nil {
			rep.Keys, rep.Rounds = req.keys, prog.Rounds()
		}
		b.reply(req, rep)
	}
	// Sampling once per flush (not per reply) keeps the gauge write off
	// the reply path; the drain loop writes the authoritative final zero.
	b.occupancy.Set(b.admitted.Load())
}

// reply releases the request's admission slot, stamps the wait and
// delivers the single reply (never blocking: out is buffered).
func (b *bucket) reply(req *request, rep Reply) {
	rep.Wait = time.Since(req.t0)
	b.release()
	b.latency.Observe(int64(rep.Wait))
	req.out <- rep
}
