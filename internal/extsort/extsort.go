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
// merges are loser-tree k-way merges, software's image of the paper's
// Section 3 multiway merge: at every step the tree holds the pairwise
// losers along the winner's path, so replacing the winner costs
// ⌈log₂ k⌉ comparisons, the same per-level compare-exchange cascade the
// network performs in hardware. The agglomeration law for sorting
// networks (arXiv 1701.00635) supplies the composition argument lifted
// into THEORY.md §15: certified runs plus a correct k-way merge compose
// into a provably correct sorter for any input length, at every level
// of the composition.
//
// Memory is bounded: leaves beyond the configured resident-key budget
// spill to a temp file (segments reserved in input order, positional
// reads) and an intermediate merge pass streams spill-to-spill, so peak
// residency is O(MemoryKeys + FanIn·buffer + workers·RunBatch·RunSize)
// regardless of input length. The whole pipeline is cancellable via
// context and instrumented with extsort.* counters and per-stage
// latency histograms.
//
// Concurrency contract: Sort calls Reader.Read, RunSorter.SortRuns and
// Writer.Write only from its own goroutine, one call at a time, so none
// of them needs to be safe for concurrent use. The pre-merge workers
// touch only sorted key buffers and the spill file, and every one of
// them has exited by the time Sort returns, on every path.
package extsort

import (
	"context"
	"errors"
	"fmt"
	"time"

	"productsort/internal/obs"
	"productsort/internal/simnet"
)

// Key aliases the machine's key type.
type Key = simnet.Key

// Typed errors; branch with errors.Is.
var (
	// ErrRunUnsorted reports that a run came back from the run sorter
	// out of order (only checked when Config.VerifyRuns is set): the
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
// sensible default.
type Config struct {
	// RunSize is the key count per run (default min(1024,
	// sorter.MaxRun()); must not exceed sorter.MaxRun()).
	RunSize int
	// FanIn bounds the merge fan-in: at most this many leaves merge at
	// once; more leaves take an earlier partial pass. The default is the
	// largest F with (F+1)·4096 ≤ MemoryKeys — every spilled input of a
	// merge holds a 4096-key read buffer — but at least 16: 511 at the
	// default budget. Min 2.
	FanIn int
	// RunBatch is how many formed runs accumulate before one SortRuns
	// call — the batch the columnar replay amortizes its program walk
	// over, and the batch a background worker then pre-merges into one
	// merge leaf (default 16).
	RunBatch int
	// MemoryKeys bounds resident sorted keys: leaves beyond it spill to
	// disk (default 1<<21 keys = 16 MiB; raised to (FanIn+1)·4096 so the
	// merge always has buffer room).
	MemoryKeys int
	// SpillDir is where the spill file lives (default os.TempDir()).
	SpillDir string
	// VerifyRuns, when set, checks every run for sortedness before it
	// enters the merge and fails with ErrRunUnsorted — the runtime
	// form of the battery's run-independence property, and the guard
	// the chaos leg leans on when the run sorter heals itself under
	// injected faults.
	VerifyRuns bool
	// Metrics optionally receives the extsort.* instruments.
	Metrics *obs.Metrics
}

// Stats reports one Sort's accounting.
type Stats struct {
	// Keys is the total number of keys sorted.
	Keys int64 `json:"keys"`
	// Runs is the number of runs the run sorter formed. Each batch of
	// up to RunBatch of them is pre-merged into one merge leaf.
	Runs int64 `json:"runs"`
	// RunSize and FanIn echo the effective configuration.
	RunSize int `json:"runSize"`
	FanIn   int `json:"fanIn"`
	// MergePasses counts merge passes over the leaves (1 when the leaves
	// number at most FanIn); pre-merging is not a pass.
	MergePasses int `json:"mergePasses"`
	// MaxFanIn is the widest fan-in any merge pass used.
	MaxFanIn int `json:"maxFanIn"`
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

// minDerivedFanIn is the floor of the default fan-in: below it a small
// MemoryKeys would buy many cheap passes instead of a few buffers.
const minDerivedFanIn = 16

// normalize validates cfg against the sorter and fills defaults.
func (cfg Config) normalize(sorter RunSorter) (Config, error) {
	if sorter == nil {
		return cfg, ErrNilSorter
	}
	maxRun := sorter.MaxRun()
	if maxRun < 1 {
		return cfg, &ConfigError{Field: "RunSorter", Reason: fmt.Sprintf("MaxRun %d < 1", maxRun)}
	}
	if cfg.RunSize < 0 {
		return cfg, &ConfigError{Field: "RunSize", Reason: fmt.Sprintf("negative value %d", cfg.RunSize)}
	}
	if cfg.RunSize == 0 {
		cfg.RunSize = defaultRunSize
		if cfg.RunSize > maxRun {
			cfg.RunSize = maxRun
		}
	}
	if cfg.RunSize > maxRun {
		return cfg, &ConfigError{
			Field:  "RunSize",
			Reason: fmt.Sprintf("%d exceeds the run sorter's ceiling %d", cfg.RunSize, maxRun),
		}
	}
	if cfg.FanIn < 0 {
		return cfg, &ConfigError{Field: "FanIn", Reason: fmt.Sprintf("negative value %d", cfg.FanIn)}
	}
	if cfg.FanIn == 1 {
		return cfg, &ConfigError{Field: "FanIn", Reason: "1 < 2: a merge needs two inputs"}
	}
	if cfg.RunBatch < 0 {
		return cfg, &ConfigError{Field: "RunBatch", Reason: fmt.Sprintf("negative value %d", cfg.RunBatch)}
	}
	if cfg.RunBatch == 0 {
		cfg.RunBatch = 16
	}
	if cfg.MemoryKeys < 0 {
		return cfg, &ConfigError{Field: "MemoryKeys", Reason: fmt.Sprintf("negative value %d", cfg.MemoryKeys)}
	}
	if cfg.MemoryKeys == 0 {
		cfg.MemoryKeys = 1 << 21
	}
	if cfg.FanIn == 0 {
		cfg.FanIn = max(cfg.MemoryKeys/spillBufKeys-1, minDerivedFanIn)
	}
	// The merge needs one read buffer per spilled input plus the output
	// block; below this floor spilling would thrash.
	if floor := (cfg.FanIn + 1) * spillBufKeys; cfg.MemoryKeys < floor {
		cfg.MemoryKeys = floor
	}
	return cfg, nil
}

// Sort drains src, sorts it, and writes the fully sorted sequence to
// dst. It returns the run/merge/spill accounting, or the first error
// from the source, the sink, the run sorter, the spill file, or the
// context. On error (including cancellation) every pre-merge worker has
// exited and the spill file is released before returning; dst may have
// received a sorted prefix.
func Sort(ctx context.Context, src Reader, dst Writer, sorter RunSorter, cfg Config) (*Stats, error) {
	cfg, err := cfg.normalize(sorter)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	met := newMetrics(cfg.Metrics)
	stats := &Stats{RunSize: cfg.RunSize, FanIn: cfg.FanIn}

	store := newRunStore(cfg.SpillDir, cfg.MemoryKeys, met)
	defer store.close()
	defer store.foldStats(stats)

	if err := formRuns(ctx, src, sorter, cfg, store, stats, met); err != nil {
		return stats, err
	}
	if met != nil {
		met.keys.Add(stats.Keys)
		met.runs.Add(stats.Runs)
	}
	t0 := time.Now()
	err = mergeRuns(ctx, store, dst, cfg, stats, met)
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
