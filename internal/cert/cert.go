// Package cert is the 0-1 certification engine for compiled schedule
// programs: a machine-checked sorting proof per topology.
//
// Every internal/schedule.Program is a data-oblivious comparator
// network — its exchange ops apply (min, max) to fixed node pairs
// regardless of the keys. Knuth's 0-1 principle therefore applies: the
// program sorts all inputs if and only if it sorts all 2^n vectors of
// zeros and ones (THEORY.md §11 states the argument for this IR). On
// 0-1 values a compare-exchange degenerates to pure boolean algebra,
//
//	min(a, b) = a AND b,   max(a, b) = a OR b,
//
// so 64 input vectors pack into one machine word per key and each
// exchange pair costs two word operations. The replay is
// internal/schedule's one 0-1 engine (CertifyExhaustive, CertifySampled,
// CertifyStages); this package chooses its vectors, maps what it
// reports back onto the ops, and shrinks witnesses. What it replays is
// the program's executed stream (schedule.Program.LoweredComparators),
// so the proof covers exactly what the columnar kernel runs. Each
// dropped comparator is probed, not applied: if it would exchange on
// some input, the executed stream departs from the ops there, and the
// run fails with a witness naming that comparator (THEORY.md §17). The
// exhaustive sweep over all 2^n vectors is feasible for every built-in
// factor family with n = N^r ≤ ~24 keys in well under a minute.
//
// When a program fails, the engine reports the smallest failing vector
// index and the minimizer shrinks it to a minimal witness: fewest ones
// first, then lexicographically least (in snake order), together with
// the first op index at which the sorted-prefix metric breaks — the
// shortest human-checkable refutation the engine can produce.
//
// Staged mode proves programs of the paper's recursion far above the
// exhaustive envelope: it replays each stage over the 0-1 vectors that
// stage can receive (every vector of a PG_2 block for the base S_2 sort,
// every tuple of sorted slabs for a merge) and checks that each stage
// leaves its output sorted in the layout the next stage assumes
// (THEORY.md §18). It is the same pass that chooses the executed
// stream, run over the executed stream with every dropped comparator
// probed.
//
// Above the exhaustive envelope, Sampled mode replays seeded uniform
// random 0-1 vectors instead. A sampled pass cannot prove correctness,
// but it keeps the same witness machinery and adds a coverage lint:
// comparators never observed exchanging across the whole sample are
// reported as dead (on an exhaustive certified pass, a dead comparator
// is provably removable).
package cert

import (
	"fmt"
	"runtime"
	"time"

	"productsort/internal/schedule"
)

// DefaultMaxExhaustiveKeys bounds the exhaustive sweep: 2^24 vectors
// (262144 word blocks) is the largest envelope that stays interactive.
const DefaultMaxExhaustiveKeys = 24

// maxExhaustiveHard is the absolute cap on exhaustive certification;
// beyond it the vector space no longer fits a sane run regardless of
// what the caller asks for.
const maxExhaustiveHard = 30

// DefaultSampleVectors is the sampled-mode default: 2^16 random 0-1
// vectors.
const DefaultSampleVectors = 1 << 16

// Options configures a certification run. The zero value asks for an
// exhaustive proof when the network has at most DefaultMaxExhaustiveKeys
// keys and a DefaultSampleVectors random sweep above that.
type Options struct {
	// Workers is the parallel worker count; <1 selects GOMAXPROCS.
	Workers int
	// MaxExhaustiveKeys is the largest key count certified exhaustively
	// (<1 selects DefaultMaxExhaustiveKeys, capped at 30). Networks with
	// more keys fall back to sampled mode.
	MaxExhaustiveKeys int
	// SampleVectors is the sampled-mode vector count, rounded up to a
	// multiple of 64 (<1 selects DefaultSampleVectors).
	SampleVectors int
	// Seed drives sampled-mode vector generation; runs are reproducible
	// per (program, seed, SampleVectors).
	Seed int64
}

// workers resolves the worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// maxExhaustive resolves the exhaustive envelope.
func (o Options) maxExhaustive() int {
	m := o.MaxExhaustiveKeys
	if m < 1 {
		m = DefaultMaxExhaustiveKeys
	}
	return min(m, maxExhaustiveHard)
}

// sampleVectors resolves the sampled-mode vector count.
func (o Options) sampleVectors() int {
	if o.SampleVectors > 0 {
		return o.SampleVectors
	}
	return DefaultSampleVectors
}

// DeadComparator identifies one comparator that was never observed
// exchanging (its lo key was never 1 while its hi key was 0) across the
// certified input set. On an exhaustive certified run this is a proof
// the comparator is removable; on a sampled run it is a lint.
type DeadComparator struct {
	// Op is the op index in the program's instruction stream.
	Op int `json:"op"`
	// Pair is the pair's index within the op.
	Pair int `json:"pair"`
	// Lo and Hi are the pair's node ids.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Witness is a concrete 0-1 input the program fails to sort, shrunk by
// Minimize.
type Witness struct {
	// Vector holds the failing input: Vector[p] is the 0/1 key loaded
	// at snake position p.
	Vector []byte `json:"vector"`
	// Ones is the Hamming weight of Vector.
	Ones int `json:"ones"`
	// FailPos is the first snake position p of the replayed output with
	// output[p] = 1 and output[p+1] = 0 — where sortedness visibly
	// breaks.
	FailPos int `json:"failPos"`
	// BreakOp is the first op index at which the sorted-prefix metric
	// (the length of the longest output prefix already holding its
	// final sorted value) strictly decreases during the witness replay,
	// or -1 when the metric never decreases (the program then simply
	// stalls short of a full sorted prefix). It localizes the earliest
	// op that destroys sorted structure on this input.
	BreakOp int `json:"breakOp"`
	// Minimal reports 1-minimality: clearing any single 1 of Vector
	// yields an input the program sorts correctly.
	Minimal bool `json:"minimal"`
	// LiveDrop, when set, is the first comparator the program's
	// executed stream drops although it exchanges on Vector in the
	// unpruned ops: the pruning, not the schedule, is wrong (FailPos is
	// then -1 if the output still sorts).
	LiveDrop *DeadComparator `json:"liveDrop,omitempty"`
}

// String renders the witness vector most-significant-last, matching
// snake order left to right.
func (w *Witness) String() string {
	b := make([]byte, len(w.Vector))
	for i, v := range w.Vector {
		b[i] = '0' + v
	}
	return fmt.Sprintf("%s (ones=%d failPos=%d breakOp=%d)", b, w.Ones, w.FailPos, w.BreakOp)
}

// Result reports one certification run.
type Result struct {
	// Certified is true when every replayed 0-1 vector came out sorted.
	// Only an Exhaustive run turns this into a proof over all inputs.
	Certified bool `json:"certified"`
	// Exhaustive reports whether all 2^Keys vectors were covered.
	Exhaustive bool `json:"exhaustive"`
	// Keys is the network's key (node) count n.
	Keys int `json:"keys"`
	// Vectors is the number of distinct 0-1 inputs certified.
	Vectors uint64 `json:"vectors"`
	// Words is the number of 64-vector words replayed: on a failed
	// exhaustive or sampled run, those up to and including the word
	// holding the smallest failing vector.
	Words uint64 `json:"words"`
	// WordOps is the number of comparator word operations executed —
	// the work the bitsliced engine actually did (executed comparators
	// times words; dropped comparators are only probed).
	WordOps uint64 `json:"wordOps"`
	// Ops is the number of round-consuming exchange ops in the program.
	Ops int `json:"ops"`
	// Comparators is the program's total pair count.
	Comparators int `json:"comparators"`
	// Executed is the number of comparators the program's lowered
	// stream executes (schedule.Program.Executed); the rest are dropped
	// by the pruning pass and reported in Dead.
	Executed int `json:"executed"`
	// Dead lists comparators never observed exchanging; nil when the
	// run aborted on a failure (coverage would be incomplete).
	Dead []DeadComparator `json:"dead,omitempty"`
	// Elapsed is the wall time of the run.
	Elapsed time.Duration `json:"elapsedNs"`
	// Witness is the minimized failing input; nil when Certified (and
	// always nil for a staged run, which reports StageFailure).
	Witness *Witness `json:"witness,omitempty"`
	// Stages, set only by a staged run, lists the program's stages;
	// Vectors and Words then sum over those it replayed (up to the
	// first failing one).
	Stages []schedule.Stage `json:"stages,omitempty"`
	// StageFailure says which stage of a staged run failed and why.
	StageFailure *StageFailure `json:"stageFailure,omitempty"`
}

// StageFailure is the first stage a staged certificate rejects.
type StageFailure struct {
	// K is the stage's dimension: 2 for the base S_2 sort, k for the
	// merge along dimension k.
	K int `json:"k"`
	// Reason says what failed.
	Reason string `json:"reason"`
	// LiveDrop, when set, is the comparator the executed stream drops
	// although it swaps on a vector of this stage.
	LiveDrop *DeadComparator `json:"liveDrop,omitempty"`
}

// Run certifies prog: exhaustively over all 2^n 0-1 vectors when n is
// within the exhaustive envelope, by seeded random sampling otherwise.
// It validates the program's structural invariants first — certification
// is only meaningful over a well-formed IR.
func Run(prog *schedule.Program, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cert: invalid program: %w", err)
	}
	if prog.Net().Nodes() <= opt.maxExhaustive() {
		return exhaustive(prog, opt), nil
	}
	return sampled(prog, opt), nil
}

// Exhaustive certifies prog over all 2^n vectors, failing if n exceeds
// the (resolved) exhaustive envelope.
func Exhaustive(prog *schedule.Program, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cert: invalid program: %w", err)
	}
	if n := prog.Net().Nodes(); n > opt.maxExhaustive() {
		return nil, fmt.Errorf("cert: %d keys exceed the exhaustive envelope of %d", n, opt.maxExhaustive())
	}
	return exhaustive(prog, opt), nil
}

// Sampled certifies prog over a seeded random 0-1 sample of the input
// space. It never proves correctness; it hunts counterexamples and
// reports comparator coverage.
func Sampled(prog *schedule.Program, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cert: invalid program: %w", err)
	}
	return sampled(prog, opt), nil
}

// exhaustive replays all 2^n vectors of a validated program.
func exhaustive(prog *schedule.Program, opt Options) *Result {
	start := time.Now()
	lay := newLayout(prog)
	return lay.whole(schedule.CertifyExhaustive(prog, lay.probe, opt.workers()), true, start)
}

// sampled replays the seeded sample of a validated program.
func sampled(prog *schedule.Program, opt Options) *Result {
	start := time.Now()
	lay := newLayout(prog)
	words := uint64(opt.sampleVectors()+63) / 64
	return lay.whole(schedule.CertifySampled(prog, lay.probe, words, uint64(opt.Seed), opt.workers()), false, start)
}

// Staged certifies prog stage by stage (THEORY.md §18): it replays the
// executed stream of each stage of the recursion over that stage's 0-1
// vectors, probing every dropped comparator, and checks each stage's
// output in the next stage's layout. A certified staged run is a proof
// that the executed stream sorts every input and drops only comparators
// that never swap; its Dead list is then the exact dead set. It fails
// with schedule.ErrNotStaged on programs without the stage structure
// (emitted families, r < 2, or a stage over the vector cap).
func Staged(prog *schedule.Program, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cert: invalid program: %w", err)
	}
	start := time.Now()
	lay := newLayout(prog)
	rep, err := schedule.CertifyStages(prog, lay.probe, opt.workers())
	if err != nil {
		return nil, err
	}
	res := &Result{
		Certified:   rep.Certified,
		Stages:      rep.Stages,
		Keys:        lay.n,
		Ops:         lay.ops,
		Comparators: len(lay.comps),
		Executed:    lay.executed,
	}
	for s, st := range rep.Stages {
		if rep.Failed >= 0 && s > rep.Failed {
			break // not replayed
		}
		res.Vectors += st.Vectors
		res.Words += st.Words
		for f := st.First; f < st.End; f++ {
			if !lay.probe[f] {
				res.WordOps += st.Words
			}
		}
	}
	if rep.Certified {
		res.Dead = lay.deadComparators(rep.Live)
	} else {
		res.StageFailure = &StageFailure{K: rep.Stages[rep.Failed].K, Reason: rep.Reason}
		if f := rep.LiveDrop; f >= 0 {
			res.StageFailure.LiveDrop = lay.dead(f)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
