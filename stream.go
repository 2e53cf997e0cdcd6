// Streaming external sort: the public face of internal/extsort. A
// compiled network (or the batching server) becomes the run sorter of
// a run-formation-then-merge pipeline that sorts key streams of any
// length — chunk the stream into runs, sort each run through a
// certified fixed-size network (sentinel padding for the ragged tail,
// THEORY.md §12), k-way merge the runs as a tree of 2-way merges, each
// a 16-key bitonic merging network in vector registers on AVX-512
// hosts (the paper's Section 3 multiway merge in software), spilling
// past the memory budget to disk. THEORY.md §15 gives the
// agglomeration argument: certified runs plus a correct k-way merge
// compose into a provably correct sorter for unbounded inputs.

package productsort

import (
	"context"

	"productsort/internal/extsort"
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

// ErrRunUnsorted is returned (wrapped) when a run sorter hands back a
// run out of order; every run is checked before it enters the merge.
var ErrRunUnsorted = extsort.ErrRunUnsorted

// NewKeysReader streams an in-memory slice (the slice is only read).
func NewKeysReader(keys []Key) KeyReader { return extsort.NewSliceReader(keys) }

// NewKeysWriter returns an in-memory sink; call Keys for the result.
func NewKeysWriter() *extsort.SliceWriter { return extsort.NewSliceWriter() }

// StreamConfig parametrizes SortStream and Server.SubmitStream. The
// zero value of every field selects a sensible default. Runs are
// min(1024, the run sorter's ceiling) keys — the network's node count
// for SortStream, the largest serving network for SubmitStream — and
// the merge fan-in is the largest F with (F+1)·4096 ≤ MemoryKeys, at
// least 16 (511 at the default budget); every run is checked sorted
// before it is merged (ErrRunUnsorted).
type StreamConfig struct {
	// MemoryKeys bounds resident sorted keys; runs beyond it spill to
	// disk (default 1<<21 keys = 16 MiB, at least 17·4096).
	MemoryKeys int
	// SpillDir hosts the (immediately unlinked) spill file (default
	// os.TempDir()).
	SpillDir string
}

// SortStream sorts the key stream src into dst through this compiled
// network: runs of up to min(1024, node count) keys are sorted by the
// network's certified batch replay, pre-merged a batch at a time by
// background workers (the largest batch whose buffers fit half of
// MemoryKeys, at least 16 runs: 170 at the defaults on 2 CPUs), and
// merged with trees of 2-way merges (a vector merging network on
// AVX-512 hosts, a branch-free scalar loop elsewhere), the last merge
// split into key ranges merged on every CPU. src.Read and dst.Write
// are called only from the calling goroutine, one at a time, and every
// background worker has exited when SortStream returns. Cancellable via ctx; on error dst
// may hold a sorted prefix. Safe for concurrent use — each call owns
// its run and merge state.
func (c *CompiledNetwork) SortStream(ctx context.Context, src KeyReader, dst KeyWriter, cfg StreamConfig) (*StreamStats, error) {
	sorter := extsort.NewNetworkSorter(c.prog, 0)
	return extsort.Sort(ctx, src, dst, sorter, extsort.Config{MemoryKeys: cfg.MemoryKeys, SpillDir: cfg.SpillDir})
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
// queue-full inside the lane becomes backoff-and-resubmit. It keeps 16
// runs in flight, not SortStream's budget-derived batch. The extsort.*
// instruments land in the server's metrics registry.
func (s *Server) SubmitStream(ctx context.Context, src KeyReader, dst KeyWriter, cfg StreamConfig) (*StreamStats, error) {
	return s.s.SubmitStream(ctx, src, dst, extsort.Config{MemoryKeys: cfg.MemoryKeys, SpillDir: cfg.SpillDir})
}
