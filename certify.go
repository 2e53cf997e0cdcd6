// Certification: the public face of the bitsliced 0-1 proof engine
// (internal/cert). A compiled network can be machine-checked to sort —
// exhaustively over all 2^n zero-one inputs inside the envelope (a
// proof, by the 0-1 principle), by seeded sampling above it (a lint).

package productsort

import (
	"time"

	"productsort/internal/cert"
)

// CertifyOptions configures CompiledNetwork.Certify. The zero value
// (or a nil pointer) requests an exhaustive proof for networks of at
// most 24 keys and a 65536-vector random sweep above that.
type CertifyOptions struct {
	// Workers is the parallel worker count; <1 selects GOMAXPROCS.
	Workers int
	// MaxExhaustiveKeys caps the exhaustive envelope (<1 = 24, hard
	// cap 30); larger networks are sampled.
	MaxExhaustiveKeys int
	// SampleVectors is the sampled-mode vector count (<1 = 65536),
	// rounded up to a multiple of 64.
	SampleVectors int
	// Seed drives sampled-mode vector generation.
	Seed int64
}

// DeadComparator identifies a comparator never observed exchanging
// across the certified input set. After an exhaustive certified run it
// is provably removable; after a sampled run it is a coverage lint.
type DeadComparator struct {
	// Op is the index in the compiled program's instruction stream and
	// Pair the comparator's index within that op.
	Op, Pair int
	// Lo and Hi are the comparator's node ids.
	Lo, Hi int
}

// CertWitness is a minimal 0-1 input the program fails to sort: fewest
// ones, then lexicographically least, among the failing vectors the
// minimizer can reach.
type CertWitness struct {
	// Vector[p] is the 0/1 key loaded at snake position p.
	Vector []byte
	// Ones is the Hamming weight of Vector.
	Ones int
	// FailPos is the first snake position where the replayed output
	// places a 1 immediately before a 0.
	FailPos int
	// BreakOp is the first op index at which the sorted-prefix metric
	// strictly decreases during the witness replay (-1: never).
	BreakOp int
	// Minimal reports 1-minimality: clearing any single 1 yields an
	// input the program sorts.
	Minimal bool
	// LiveDrop, when set, names the first comparator the executed
	// stream drops although it exchanges on Vector in the unpruned
	// program: the pruning, not the schedule, is wrong.
	LiveDrop *DeadComparator
}

// Certificate reports one certification run over a compiled network's
// phase program.
type Certificate struct {
	// Certified is true when every replayed 0-1 vector sorted;
	// combined with Exhaustive it is a proof over all inputs.
	Certified bool
	// Exhaustive reports whether all 2^Keys vectors were covered.
	Exhaustive bool
	// Keys is the network's node count n.
	Keys int
	// Vectors, Words and WordOps count the certified inputs, the
	// 64-vector word blocks replayed, and the comparator word
	// operations executed.
	Vectors, Words, WordOps uint64
	// Ops and Comparators describe the program: exchange phases and
	// total comparator count.
	Ops, Comparators int
	// Executed is how many of the comparators the lowered stream runs —
	// what SortBatch, SortBlocks, SortStream and the server execute; the
	// pruning pass proved the rest never swap.
	Executed int
	// Dead lists comparators never observed exchanging, the dropped
	// ones included (nil after a failed run).
	Dead []DeadComparator
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// Witness is the minimized counterexample; nil when Certified.
	Witness *CertWitness
}

// Certify machine-checks that the network's compiled phase program
// sorts, replaying the comparator stream the batch paths execute and
// proving that every comparator it drops never swaps. Inside the exhaustive envelope (Keys ≤ 24 by default) it
// replays all 2^n 0-1 vectors — by the 0-1 principle a full proof that
// every input sorts — using the bitsliced engine (64 vectors per word,
// parallel workers). Above the envelope it replays a seeded random
// sample instead, which can only refute, not prove. A nil opts selects
// the defaults.
//
// On failure the Certificate carries a minimized witness; feeding
// Witness.Vector (snake order) to Sort reproduces the misbehaviour.
func (c *CompiledNetwork) Certify(opts *CertifyOptions) (*Certificate, error) {
	var o cert.Options
	if opts != nil {
		o = cert.Options{
			Workers:           opts.Workers,
			MaxExhaustiveKeys: opts.MaxExhaustiveKeys,
			SampleVectors:     opts.SampleVectors,
			Seed:              opts.Seed,
		}
	}
	res, err := cert.Run(c.prog, o)
	if err != nil {
		return nil, err
	}
	out := &Certificate{
		Certified:   res.Certified,
		Exhaustive:  res.Exhaustive,
		Keys:        res.Keys,
		Vectors:     res.Vectors,
		Words:       res.Words,
		WordOps:     res.WordOps,
		Ops:         res.Ops,
		Comparators: res.Comparators,
		Executed:    res.Executed,
		Elapsed:     res.Elapsed,
	}
	for _, d := range res.Dead {
		out.Dead = append(out.Dead, DeadComparator{Op: d.Op, Pair: d.Pair, Lo: d.Lo, Hi: d.Hi})
	}
	if w := res.Witness; w != nil {
		out.Witness = &CertWitness{
			Vector:  append([]byte(nil), w.Vector...),
			Ones:    w.Ones,
			FailPos: w.FailPos,
			BreakOp: w.BreakOp,
			Minimal: w.Minimal,
		}
		if d := w.LiveDrop; d != nil {
			out.Witness.LiveDrop = &DeadComparator{Op: d.Op, Pair: d.Pair, Lo: d.Lo, Hi: d.Hi}
		}
	}
	return out, nil
}
