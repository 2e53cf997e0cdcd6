// The bitsliced 0-1 evaluator: 64 input vectors per word, one AND/OR
// pair per comparator, parallel worker blocks over the vector space.

package cert

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"productsort/internal/schedule"
)

// lowPat[p] is the periodic bit pattern of digit p over one 64-vector
// block: bit j is set iff bit p of j is set. Vector index bits below 6
// cycle inside a 64-aligned block, so initialization needs no per-lane
// work.
var lowPat = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// comparator is one exchange pair of the program, flattened in
// execution order: the op index and pair index it came from, its node
// ids, and whether the program's executed stream drops it.
type comparator struct {
	op, pair int
	lo, hi   int
	dropped  bool
}

// layout caches the program geometry every evaluation needs: the snake
// order (sortedness is judged along it), its inverse, and every
// exchange pair of the ops, each marked executed or dropped by the
// program's lowered stream (schedule.Program.ExecutedIndex).
type layout struct {
	n        int
	snake    []int // snake[p] = node id at snake position p
	pos      []int // pos[node] = snake position
	comps    []comparator
	ops      int // exchange ops
	executed int
}

func newLayout(prog *schedule.Program) *layout {
	net := prog.Net()
	n := net.Nodes()
	lay := &layout{n: n, snake: make([]int, n), pos: make([]int, n)}
	for p := 0; p < n; p++ {
		node := net.NodeAtSnake(p)
		lay.snake[p] = node
		lay.pos[node] = p
	}
	ops := prog.Ops()
	for i := range ops {
		switch ops[i].Kind {
		case schedule.OpCompareExchange, schedule.OpRoutedExchange:
			lay.ops++
			for j, pr := range ops[i].Pairs {
				lay.comps = append(lay.comps, comparator{op: i, pair: j, lo: pr[0], hi: pr[1], dropped: true})
			}
		}
	}
	executed := prog.ExecutedIndex()
	for _, f := range executed {
		lay.comps[f].dropped = false
	}
	lay.executed = len(executed)
	return lay
}

// replayWord runs the executed stream over one 64-vector word block:
// min = AND, max = OR. cov[k] is set when flattened comparator k was
// observed exchanging (lo carried a 1 while hi carried a 0) in any
// lane. A dropped comparator is only probed, never applied: the lanes
// in which it would have exchanged are returned, because there the
// executed stream departs from the unpruned ops (THEORY.md §17).
func (lay *layout) replayWord(words []uint64, cov []bool) (liveDrops uint64) {
	for k := range lay.comps {
		c := &lay.comps[k]
		wa, wb := words[c.lo], words[c.hi]
		x := wa &^ wb
		if x != 0 {
			cov[k] = true
		}
		if c.dropped {
			liveDrops |= x
			continue
		}
		words[c.lo] = wa & wb
		words[c.hi] = wa | wb
	}
	return liveDrops
}

// violations returns the lanes whose output is not sorted along the
// snake: bit j is set when some adjacent snake pair holds (1, 0) in
// lane j.
func (lay *layout) violations(words []uint64) uint64 {
	var bad uint64
	prev := words[lay.snake[0]]
	for p := 1; p < lay.n; p++ {
		cur := words[lay.snake[p]]
		bad |= prev &^ cur
		prev = cur
	}
	return bad
}

// deadComparators converts merged coverage into the lint report.
// Dropped comparators of a certified run never exchange, so they are
// reported dead like every other comparator coverage never saw swap.
func (lay *layout) deadComparators(cov []bool) []DeadComparator {
	var dead []DeadComparator
	for k, c := range lay.comps {
		if !cov[k] {
			dead = append(dead, DeadComparator{Op: c.op, Pair: c.pair, Lo: c.lo, Hi: c.hi})
		}
	}
	return dead
}

// exhaustive replays all 2^n vectors. Workers own strided block ranges
// and race toward the smallest failing vector index; a worker abandons
// blocks that can no longer improve the current minimum, so the
// reported witness is the global minimum regardless of scheduling.
func exhaustive(prog *schedule.Program, opt Options) (*Result, error) {
	start := time.Now()
	lay := newLayout(prog)
	n := lay.n
	totalVecs := uint64(1) << n
	blocks := (totalVecs + 63) / 64
	if blocks == 0 {
		blocks = 1
	}
	workers := min(opt.workers(), int(blocks))

	var earliest atomic.Uint64
	earliest.Store(math.MaxUint64)
	var wordsDone atomic.Uint64
	covs := make([][]bool, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			words := make([]uint64, n)
			cov := make([]bool, len(lay.comps))
			covs[w] = cov
			var done uint64
			for blk := uint64(w); blk < blocks; blk += uint64(workers) {
				base := blk << 6
				if base >= earliest.Load() {
					break
				}
				for node := 0; node < n; node++ {
					p := lay.pos[node]
					if p < 6 {
						words[node] = lowPat[p]
					} else if (base>>p)&1 == 1 {
						words[node] = ^uint64(0)
					} else {
						words[node] = 0
					}
				}
				liveDrops := lay.replayWord(words, cov)
				done++
				if bad := lay.violations(words) | liveDrops; bad != 0 {
					vec := base + uint64(bits.TrailingZeros64(bad))
					for {
						cur := earliest.Load()
						if vec >= cur || earliest.CompareAndSwap(cur, vec) {
							break
						}
					}
				}
			}
			wordsDone.Add(done)
		}(w)
	}
	wg.Wait()

	res := &Result{
		Exhaustive:  true,
		Keys:        n,
		Vectors:     totalVecs,
		Words:       wordsDone.Load(),
		WordOps:     wordsDone.Load() * uint64(lay.executed),
		Ops:         lay.ops,
		Comparators: len(lay.comps),
		Executed:    lay.executed,
		Elapsed:     time.Since(start),
	}
	if fail := earliest.Load(); fail != math.MaxUint64 {
		vec := make([]byte, n)
		for p := 0; p < n; p++ {
			vec[p] = byte((fail >> p) & 1)
		}
		res.Witness = buildWitness(lay, vec)
		res.Elapsed = time.Since(start)
		return res, nil
	}
	res.Certified = true
	res.Dead = lay.deadComparators(mergeCov(covs, len(lay.comps)))
	res.Elapsed = time.Since(start)
	return res, nil
}

// sampled replays a seeded uniform random 0-1 sample. Block contents
// are a pure function of (seed, block index), so the run — including
// any witness — is reproducible and independent of worker scheduling:
// workers race toward the lowest failing block index.
func sampled(prog *schedule.Program, opt Options) (*Result, error) {
	start := time.Now()
	lay := newLayout(prog)
	n := lay.n
	vectors := uint64(opt.sampleVectors())
	blocks := (vectors + 63) / 64
	vectors = blocks * 64
	workers := min(opt.workers(), int(blocks))

	var bestBlock atomic.Uint64
	bestBlock.Store(math.MaxUint64)
	var mu sync.Mutex
	var bestVec []byte
	var bestBlockLocked uint64 = math.MaxUint64
	var wordsDone atomic.Uint64
	covs := make([][]bool, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			words := make([]uint64, n)
			initial := make([]uint64, n)
			cov := make([]bool, len(lay.comps))
			covs[w] = cov
			var done uint64
			for blk := uint64(w); blk < blocks; blk += uint64(workers) {
				if blk >= bestBlock.Load() {
					break
				}
				rng := splitmix64(uint64(opt.Seed) ^ (blk+1)*0x9E3779B97F4A7C15)
				for node := 0; node < n; node++ {
					x := rng.next()
					words[node] = x
					initial[node] = x
				}
				liveDrops := lay.replayWord(words, cov)
				done++
				if bad := lay.violations(words) | liveDrops; bad != 0 {
					lane := bits.TrailingZeros64(bad)
					for {
						cur := bestBlock.Load()
						if blk >= cur {
							break
						}
						if bestBlock.CompareAndSwap(cur, blk) {
							vec := make([]byte, n)
							for p := 0; p < n; p++ {
								vec[p] = byte((initial[lay.snake[p]] >> lane) & 1)
							}
							mu.Lock()
							if blk < bestBlockLocked {
								bestBlockLocked, bestVec = blk, vec
							}
							mu.Unlock()
							break
						}
					}
				}
			}
			wordsDone.Add(done)
		}(w)
	}
	wg.Wait()

	res := &Result{
		Exhaustive:  false,
		Keys:        n,
		Vectors:     wordsDone.Load() * 64,
		Words:       wordsDone.Load(),
		WordOps:     wordsDone.Load() * uint64(lay.executed),
		Ops:         lay.ops,
		Comparators: len(lay.comps),
		Executed:    lay.executed,
		Elapsed:     time.Since(start),
	}
	if bestVec != nil {
		res.Witness = buildWitness(lay, bestVec)
		res.Elapsed = time.Since(start)
		return res, nil
	}
	res.Certified = true
	res.Dead = lay.deadComparators(mergeCov(covs, len(lay.comps)))
	res.Elapsed = time.Since(start)
	return res, nil
}

// mergeCov ORs the per-worker coverage bitmaps. Workers that never ran
// leave a nil slice.
func mergeCov(covs [][]bool, comparators int) []bool {
	merged := make([]bool, comparators)
	for _, cov := range covs {
		for k, hit := range cov {
			if hit {
				merged[k] = true
			}
		}
	}
	return merged
}

// splitmix64 is the SplitMix64 generator: tiny, seedable, and plenty
// uniform for 0-1 sampling.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
