// Streaming external sort: the public face of internal/extsort. A
// compiled network (or the batching server) becomes the run sorter of
// a run-formation-then-merge pipeline that sorts key streams of any
// length — chunk the stream into runs, sort each run through a
// certified fixed-size network (sentinel padding for the ragged tail,
// THEORY.md §12), loser-tree k-way merge the runs (the paper's Section
// 3 multiway merge in software), spilling past the memory budget to
// disk. THEORY.md §15 gives the agglomeration argument: certified
// runs plus a correct k-way merge compose into a provably correct
// sorter for unbounded inputs.

package productsort

import (
	"context"

	"productsort/internal/extsort"
	"productsort/internal/serve"
)

// KeyReader is the streaming sort's source: io.Reader semantics over
// keys (fill a prefix of dst, return the count, io.EOF at the end).
type KeyReader = extsort.Reader

// KeyWriter is the streaming sort's sink: sorted blocks arrive in
// order; the slice is reused between calls.
type KeyWriter = extsort.Writer

// StreamStats reports one streaming sort's accounting: keys, runs,
// merge passes and fan-in, spill traffic, and per-stage wall time.
type StreamStats = extsort.Stats

// ErrRunUnsorted is returned (wrapped) when StreamConfig.VerifyRuns
// catches a run entering the merge out of order.
var ErrRunUnsorted = extsort.ErrRunUnsorted

// NewKeysReader streams an in-memory slice (the slice is only read).
func NewKeysReader(keys []Key) KeyReader { return extsort.NewSliceReader(keys) }

// NewKeysWriter returns an in-memory sink; call Keys for the result.
func NewKeysWriter() *extsort.SliceWriter { return extsort.NewSliceWriter() }

// StreamConfig parametrizes SortStream and Server.SubmitStream. The
// zero value of every field selects a sensible default.
type StreamConfig struct {
	// RunSize is the key count per run (default min(1024, the run
	// sorter's ceiling — the network's node count for SortStream, the
	// largest serving network for SubmitStream)).
	RunSize int
	// FanIn bounds the k-way merge's fan-in (default: the largest F
	// with (F+1)·4096 ≤ MemoryKeys, at least 16 — 511 at the default
	// budget; min 2).
	FanIn int
	// RunBatch is how many runs sort together per batch replay and then
	// pre-merge into one merge leaf on a background worker. SortStream
	// derives the default from the budget: the largest B with
	// (2·GOMAXPROCS+2)·B·RunSize ≤ MemoryKeys/2, at least 16 — 170 at
	// the defaults on 2 CPUs, so 1e7 keys merge in one pass. On the
	// serve path it is how many runs are in flight through the server
	// at once, and the default stays 16.
	RunBatch int
	// MemoryKeys bounds resident sorted keys; runs beyond it spill to
	// disk (default 1<<21 keys = 16 MiB).
	MemoryKeys int
	// SpillDir hosts the (immediately unlinked) spill file (default
	// os.TempDir()).
	SpillDir string
	// VerifyRuns re-checks every run's sortedness before the merge and
	// fails with ErrRunUnsorted — the belt under run sorters that heal
	// themselves, like SortResilient under fault injection.
	VerifyRuns bool
}

// SortStream sorts the key stream src into dst through this compiled
// network: runs of up to RunSize keys (at most the network's node
// count) are sorted by the network's certified batch replay,
// pre-merged a batch at a time by background workers, and merged with
// loser-tree k-way merges, the last one split into key ranges merged
// on every CPU. src.Read and dst.Write are called only from
// the calling goroutine, one at a time, and every background worker
// has exited when SortStream returns. Cancellable via ctx; on error dst
// may hold a sorted prefix. Safe for concurrent use — each call owns
// its run and merge state.
func (c *CompiledNetwork) SortStream(ctx context.Context, src KeyReader, dst KeyWriter, cfg StreamConfig) (*StreamStats, error) {
	sorter := extsort.NewNetworkSorter(c.prog, 0)
	return extsort.Sort(ctx, src, dst, sorter, extsort.Config{
		RunSize:    cfg.RunSize,
		FanIn:      cfg.FanIn,
		RunBatch:   cfg.RunBatch,
		MemoryKeys: cfg.MemoryKeys,
		SpillDir:   cfg.SpillDir,
		VerifyRuns: cfg.VerifyRuns,
	})
}

// SortStreamKeys is the in-memory convenience: sort keys of any length
// through the streaming tier and return a fresh sorted slice.
func (c *CompiledNetwork) SortStreamKeys(ctx context.Context, keys []Key, cfg StreamConfig) ([]Key, *StreamStats, error) {
	out := NewKeysWriter()
	stats, err := c.SortStream(ctx, NewKeysReader(keys), out, cfg)
	if err != nil {
		return nil, stats, err
	}
	return out.Keys(), stats, nil
}

// SubmitStream is the server's large-request lane: it sorts a key
// stream of any length by chunking it into runs that ride the normal
// admission/batching path — each run maps to the cheapest covering
// certified network and batches with concurrent point traffic — then
// k-way merging the sorted runs. Where Submit sheds oversized requests
// with ErrRequestTooLarge and overload with ErrQueueFull, SubmitStream
// degrades to run-at-a-time admission: any length is accepted, and
// queue-full inside the lane becomes backoff-and-resubmit. The
// extsort.* instruments land in the server's metrics registry.
func (s *Server) SubmitStream(ctx context.Context, src KeyReader, dst KeyWriter, cfg StreamConfig) (*StreamStats, error) {
	return s.s.SubmitStream(ctx, src, dst, serve.StreamConfig{
		RunSize:    cfg.RunSize,
		FanIn:      cfg.FanIn,
		RunBatch:   cfg.RunBatch,
		MemoryKeys: cfg.MemoryKeys,
		SpillDir:   cfg.SpillDir,
		VerifyRuns: cfg.VerifyRuns,
	})
}
