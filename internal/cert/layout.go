// The program layout every certificate reports in: the snake order,
// the flattened exchange pairs of the ops, and which of them the
// executed stream drops. The 0-1 replay itself is internal/schedule's
// (CertifyExhaustive, CertifySampled, CertifyStages).

package cert

import (
	"time"

	"productsort/internal/schedule"
)

// comparator is one exchange pair of the program, flattened in
// execution order: the op index and pair index it came from and its
// node ids.
type comparator struct {
	op, pair int
	lo, hi   int
}

// layout caches the program geometry every evaluation needs: the snake
// order (sortedness is judged along it), every exchange pair of the
// ops, and which of them the program's lowered stream drops
// (schedule.Program.ExecutedIndex).
type layout struct {
	n        int
	snake    []int // snake[p] = node id at snake position p
	comps    []comparator
	probe    []bool // probe[k]: the executed stream drops comps[k]
	ops      int    // exchange ops
	executed int
}

func newLayout(prog *schedule.Program) *layout {
	net := prog.Net()
	lay := &layout{n: net.Nodes(), snake: prog.SnakePerm()}
	ops := prog.Ops()
	for i := range ops {
		switch ops[i].Kind {
		case schedule.OpCompareExchange, schedule.OpRoutedExchange:
			lay.ops++
			for j, pr := range ops[i].Pairs {
				lay.comps = append(lay.comps, comparator{op: i, pair: j, lo: pr[0], hi: pr[1]})
			}
		}
	}
	lay.probe = make([]bool, len(lay.comps))
	for k := range lay.probe {
		lay.probe[k] = true
	}
	executed := prog.ExecutedIndex()
	for _, f := range executed {
		lay.probe[f] = false
	}
	lay.executed = len(executed)
	return lay
}

// dead names comparator k for a report.
func (lay *layout) dead(k int) *DeadComparator {
	c := lay.comps[k]
	return &DeadComparator{Op: c.op, Pair: c.pair, Lo: c.lo, Hi: c.hi}
}

// deadComparators converts a replay's live set into the lint report.
// Dropped comparators of a certified run never exchange, so they are
// reported dead like every other comparator the replay never saw swap.
func (lay *layout) deadComparators(live []bool) []DeadComparator {
	var dead []DeadComparator
	for k, hit := range live {
		if !hit {
			dead = append(dead, *lay.dead(k))
		}
	}
	return dead
}

// whole turns a whole-network replay (schedule.CertifyExhaustive or
// CertifySampled) into a Result. A failed run counts the words up to
// and including the one holding the smallest failing vector.
func (lay *layout) whole(rep *schedule.StageReport, exhaustive bool, start time.Time) *Result {
	st := rep.Stages[0]
	res := &Result{
		Certified:   rep.Certified,
		Exhaustive:  exhaustive,
		Keys:        lay.n,
		Vectors:     st.Vectors,
		Words:       st.Words,
		Ops:         lay.ops,
		Comparators: len(lay.comps),
		Executed:    lay.executed,
	}
	if rep.Certified {
		res.Dead = lay.deadComparators(rep.Live)
	} else {
		res.Words = rep.Fail/64 + 1
		if !exhaustive {
			res.Vectors = 64 * res.Words
		}
		res.Witness = buildWitness(lay, rep.Vector)
	}
	res.WordOps = res.Words * uint64(lay.executed)
	res.Elapsed = time.Since(start)
	return res
}
