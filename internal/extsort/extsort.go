// Package extsort is the streaming external sort tier: it sorts key
// streams of unbounded length through the fixed-size certified sorting
// networks the rest of the repo compiles and proves.
//
// The shape is the classic run-formation-then-merge hybrid, with both
// halves grounded in the paper's machinery. Run formation chunks the
// stream into fixed-size runs and sorts each run through a certified
// compiled program — the columnar batch replay, with sentinel padding
// for the ragged tail exactly as THEORY.md §12 proves safe — so every
// run is the output of a machine-certified sorting network. Each sorted
// batch of runs is then pre-merged by a background worker into one
// long merge leaf while the caller reads and sorts the next batch. The
// merges are k-way merges built as a balanced tree of 2-way merges,
// software's image of the paper's Section 3 multiway merge, whose
// 2-way case is Batcher's merging network: on AVX-512 hosts every
// 2-way merge runs a 16-key bitonic merger in vector registers, eight
// keys a step, and elsewhere a branch-free scalar loop, so a k-way
// merge costs ⌈log₂ k⌉ passes of that kernel over its keys. The
// agglomeration law for sorting networks (arXiv 1701.00635) supplies
// the composition argument lifted into THEORY.md §15: certified runs
// plus a correct k-way merge compose into a provably correct sorter
// for any input length, at every level of the composition.
//
// The final merge is split into key ranges: every leaf records every
// 512th key (its fences) while it is in memory, evenly spaced fences
// in the total order (key, leaf, index) become splitters, and
// GOMAXPROCS workers merge the chunks between consecutive splitters —
// about one pre-merge leaf's worth of keys each, but at least 1024 per
// final leaf — side by side, the way the paper's Section 3 merge
// splits its inputs (THEORY.md §15 proves the concatenated chunks are
// the full merge). Intermediate passes cut their groups the same way.
//
// Memory is bounded: leaves beyond the configured resident-key budget
// spill to a temp file (segments reserved in input order, positional
// reads) and an intermediate merge pass streams spill-to-spill a chunk
// at a time, so peak residency is
// O(MemoryKeys + workers·(RunBatch·run size + fan-in·512)) regardless
// of input length (THEORY.md §15). Run formation holds GOMAXPROCS+2
// batches, and each pre-merge worker a merge scratch and a spill
// buffer of one leaf; the default RunBatch keeps all of it within
// ¾·MemoryKeys. The final merge's at most GOMAXPROCS+1 chunk buffers,
// and its workers' merge scratch and stage buffers, each the size of
// the largest chunk (RunBatch·run size plus 512 keys per leaf, or
// 1536 keys per leaf when that is more), take the place of the
// run-formation buffers, which are free by then. Every merging
// goroutine allocates its buffers when it first needs them and reuses
// them for the rest of the Sort call.
// The whole pipeline is cancellable via context and instrumented with
// extsort.* counters and per-stage latency histograms.
//
// Concurrency contract: Sort calls Reader.Read, RunSorter.SortRuns and
// Writer.Write only from its own goroutine, one call at a time, so none
// of them needs to be safe for concurrent use. The pre-merge workers
// and the final merge's chunk workers touch only sorted key buffers and
// the spill file (the chunk workers read it with ReadAt at their own
// offsets and hand each merged chunk to Sort's goroutine, which writes
// the chunks in order), and every one of them has exited
// by the time Sort returns, on every path.
package extsort

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"productsort/internal/obs"
	"productsort/internal/simnet"
)

// Key aliases the machine's key type.
type Key = simnet.Key

// Typed errors; branch with errors.Is.
var (
	// ErrRunUnsorted reports that a run came back from the run sorter
	// out of order. Every run is checked before it is pre-merged: the
	// merge refuses unsorted input rather than masking a run-sorter
	// bug with merge output that is wrong in subtler ways.
	ErrRunUnsorted = errors.New("extsort: run sorter produced an unsorted run")
	// ErrNilSorter rejects a Sort call without a run sorter.
	ErrNilSorter = errors.New("extsort: nil run sorter")
)

// ConfigError reports one invalid Config field by name.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("extsort: config %s: %s", e.Field, e.Reason)
}

// RunSorter sorts fixed-size runs in place; the streaming tier is
// generic over it. The certified-network sorter (NewNetworkSorter) is
// the production implementation; the serve tier substitutes one that
// submits runs through the batching server, and tests substitute
// oracles and fault-injecting variants.
type RunSorter interface {
	// MaxRun returns the largest run length one SortRuns item may have.
	MaxRun() int
	// SortRuns sorts every run ascending, in place. Runs are
	// independent; an implementation may sort them together (batch
	// replay), concurrently, or one at a time. It must respect ctx.
	SortRuns(ctx context.Context, runs [][]Key) error
}

// Config parametrizes Sort. The zero value of every field selects a
// sensible default. The run size and the merge fan-in are not settable:
// runs are min(1024, sorter.MaxRun()) keys, and the fan-in is the
// largest F with (F+1)·4096 ≤ MemoryKeys — a merge of F leaves cuts
// its chunks at 1024 keys per leaf or more, so its buffers grow with F,
// and F·512 ≤ MemoryKeys/8 bounds them — but at least 16: 511 at the
// default budget. The merge is correct at any fan-in (THEORY.md §15),
// so both follow from the budget and the sorter.
type Config struct {
	// RunBatch is how many formed runs accumulate before one SortRuns
	// call — the batch the columnar replay amortizes its program walk
	// over, and the batch a background worker then pre-merges into one
	// merge leaf. The default is derived from the budget: the largest B
	// with (2·GOMAXPROCS+2)·B·runSize ≤ MemoryKeys/2, so the batches in
	// flight plus the workers' spill-leaf buffers hold at most half the
	// budget, and with the workers' merge scratch under three quarters,
	// but at least 16: 170 at the default budget and run size on 2 CPUs.
	// Min 1.
	RunBatch int
	// MemoryKeys bounds resident sorted keys: leaves beyond it spill to
	// disk (default 1<<21 keys = 16 MiB; raised to 17·4096, the budget
	// the floor fan-in of 16 derives from).
	MemoryKeys int
	// SpillDir is where the spill file lives (default os.TempDir()).
	SpillDir string
	// Metrics optionally receives the extsort.* instruments.
	Metrics *obs.Metrics
}

// params is a normalized Config with the values derived from it and
// from the run sorter.
type params struct {
	Config
	runSize int // keys per run: min(defaultRunSize, sorter.MaxRun())
	fanIn   int // most leaves one merge takes: MemoryKeys/spillBufKeys − 1
}

// Stats reports one Sort's accounting.
type Stats struct {
	// Keys is the total number of keys sorted.
	Keys int64 `json:"keys"`
	// Runs is the number of runs the run sorter formed. Each batch of
	// up to RunBatch of them is pre-merged into one merge leaf.
	Runs int64 `json:"runs"`
	// RunSize, FanIn and RunBatch echo the effective configuration: the
	// derived run size and fan-in, and the given or derived RunBatch.
	RunSize  int `json:"runSize"`
	FanIn    int `json:"fanIn"`
	RunBatch int `json:"runBatch"`
	// MergePasses counts merge passes over the leaves (1 when the leaves
	// number at most FanIn); pre-merging is not a pass.
	MergePasses int `json:"mergePasses"`
	// MaxFanIn is the widest fan-in any merge pass used.
	MaxFanIn int `json:"maxFanIn"`
	// MergeChunks is how many key ranges the final merge was split into
	// for its GOMAXPROCS workers: chunks of RunBatch·RunSize keys, or of
	// 1024 keys per final leaf when that is more (1 when the input fits
	// one chunk).
	MergeChunks int `json:"mergeChunks"`
	// SpilledRuns and SpilledBytes account the disk traffic: leaves (or
	// intermediate merged segments) written to the spill file and the
	// bytes they cost.
	SpilledRuns  int64 `json:"spilledRuns"`
	SpilledBytes int64 `json:"spilledBytes"`
	// RunFormNs, RunSortNs and MergeNs split Sort's own wall time
	// between reading the stream into runs, sorting the runs, and
	// merging: MergeNs runs from the end of the stream to the last
	// Write, so it covers the wait for the last pre-merges and every
	// merge pass, but not the pre-merging that overlapped formation.
	RunFormNs int64 `json:"runFormNs"`
	RunSortNs int64 `json:"runSortNs"`
	MergeNs   int64 `json:"mergeNs"`
	// SpillWriteNs and SpillReadNs are the busy time spent encoding and
	// writing, and reading and decoding, the spill file, summed across
	// goroutines: with pre-merge workers writing in parallel they can
	// exceed the wall time they overlap.
	SpillWriteNs int64 `json:"spillWriteNs"`
	SpillReadNs  int64 `json:"spillReadNs"`
}

// metrics bundles the extsort.* instruments; nil when no registry is
// configured. The spill histograms observe one I/O call each (a
// segment write, a block read) from whichever goroutine made it.
type metrics struct {
	keys, runs   *obs.Counter
	spillRuns    *obs.Counter
	spillBytes   *obs.Counter
	mergePasses  *obs.Counter
	fanIn        *obs.Histogram
	runSortNs    *obs.Histogram
	mergeNs      *obs.Histogram
	runFormNs    *obs.Histogram
	spillWriteNs *obs.Histogram
	spillReadNs  *obs.Histogram
}

// FanInBuckets is the histogram layout for realized merge fan-ins; it
// reaches 1024 so derived fan-ins (511 at the default budget) land in
// a finite bucket.
var FanInBuckets = []int64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func newMetrics(m *obs.Metrics) *metrics {
	if m == nil {
		return nil
	}
	return &metrics{
		keys:        m.Counter("extsort.keys"),
		runs:        m.Counter("extsort.runs"),
		spillRuns:   m.Counter("extsort.spill.runs"),
		spillBytes:  m.Counter("extsort.spill.bytes"),
		mergePasses: m.Counter("extsort.merge.passes"),
		fanIn:       m.Histogram("extsort.merge.fanin", FanInBuckets),
		runSortNs:   m.Histogram("extsort.runsort_ns", obs.DurationBucketsNs),
		mergeNs:     m.Histogram("extsort.merge_ns", obs.DurationBucketsNs),
		runFormNs:   m.Histogram("extsort.runform_ns", obs.DurationBucketsNs),
		// Busy time per spill I/O call, summed across goroutines.
		spillWriteNs: m.Histogram("extsort.spill.write_ns", obs.DurationBucketsNs),
		spillReadNs:  m.Histogram("extsort.spill.read_ns", obs.DurationBucketsNs),
	}
}

// defaultRunSize is the run length chosen when the sorter's ceiling
// allows it: large enough to amortize the merge, small enough that the
// planner maps it to a mid-size certified network.
const defaultRunSize = 1024

// minFanIn is the floor of the fan-in: below it a small MemoryKeys
// would buy many cheap passes instead of a few buffers.
const minFanIn = 16

// minDerivedRunBatch is the floor of the default run batch: wide hosts
// and small budgets still amortize the program walk over 16 runs.
const minDerivedRunBatch = 16

// normalize validates cfg against the sorter, fills defaults and
// derives the run size and the fan-in.
func (cfg Config) normalize(sorter RunSorter) (params, error) {
	if sorter == nil {
		return params{}, ErrNilSorter
	}
	maxRun := sorter.MaxRun()
	if maxRun < 1 {
		return params{}, &ConfigError{Field: "RunSorter", Reason: fmt.Sprintf("MaxRun %d < 1", maxRun)}
	}
	if cfg.RunBatch < 0 {
		return params{}, &ConfigError{Field: "RunBatch", Reason: fmt.Sprintf("negative value %d", cfg.RunBatch)}
	}
	if cfg.MemoryKeys < 0 {
		return params{}, &ConfigError{Field: "MemoryKeys", Reason: fmt.Sprintf("negative value %d", cfg.MemoryKeys)}
	}
	if cfg.MemoryKeys == 0 {
		cfg.MemoryKeys = 1 << 21
	}
	// Below this floor the derived fan-in would drop under minFanIn,
	// and a small budget would buy many passes over the spill file.
	cfg.MemoryKeys = max(cfg.MemoryKeys, (minFanIn+1)*spillBufKeys)
	p := params{Config: cfg, runSize: min(defaultRunSize, maxRun), fanIn: cfg.MemoryKeys/spillBufKeys - 1}
	if p.RunBatch == 0 {
		// formRuns keeps GOMAXPROCS+2 batches in flight, and each of its
		// GOMAXPROCS workers may hold one spilled leaf of a batch's keys.
		perBatch := (2*runtime.GOMAXPROCS(0) + 2) * p.runSize
		p.RunBatch = max(p.MemoryKeys/2/perBatch, minDerivedRunBatch)
	}
	return p, nil
}

// Sort drains src, sorts it, and writes the fully sorted sequence to
// dst. It returns the run/merge/spill accounting, or the first error
// from the source, the sink, the run sorter, the spill file, or the
// context. On error (including cancellation) every pre-merge worker has
// exited and the spill file is released before returning; dst may have
// received a sorted prefix.
func Sort(ctx context.Context, src Reader, dst Writer, sorter RunSorter, cfg Config) (*Stats, error) {
	p, err := cfg.normalize(sorter)
	if err != nil {
		return nil, err
	}
	return sortParams(ctx, src, dst, sorter, p)
}

// sortParams is Sort past normalization.
func sortParams(ctx context.Context, src Reader, dst Writer, sorter RunSorter, p params) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	met := newMetrics(p.Metrics)
	stats := &Stats{RunSize: p.runSize, FanIn: p.fanIn, RunBatch: p.RunBatch}

	store := newRunStore(p.SpillDir, p.MemoryKeys, met)
	defer store.close()
	defer store.foldStats(stats)

	if err := formRuns(ctx, src, sorter, p, store, stats, met); err != nil {
		return stats, err
	}
	if met != nil {
		met.keys.Add(stats.Keys)
		met.runs.Add(stats.Runs)
	}
	t0 := time.Now()
	err := mergeRuns(ctx, store, dst, p, stats, met)
	stats.MergeNs += time.Since(t0).Nanoseconds()
	if met != nil {
		met.mergeNs.Observe(stats.MergeNs)
		met.mergePasses.Add(int64(stats.MergePasses))
	}
	return stats, err
}

// sortedKeys reports whether keys are nondecreasing.
func sortedKeys(keys []Key) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}
