// Compile-time validation of the schedule IR: the structural invariants
// every backend (and, above all, the 0-1 certifier in internal/cert)
// relies on without re-checking per replay.

package schedule

import (
	"fmt"

	"productsort/internal/product"
	"productsort/internal/simnet"
)

// Validate checks the structural invariants of the program's exchange
// ops: every pair endpoint must be a node id in [0, Nodes()), a pair's
// endpoints must be distinct, and the pairs of one op must be
// node-disjoint (a node may appear in at most one pair per parallel
// phase — two comparators writing the same cell in one synchronous step
// would make the op's semantics order-dependent). Round-consuming ops
// must carry a positive cost, S2 brackets must be balanced, and a merge
// marker must name a merge dimension of the network.
//
// Compile runs Validate on every freshly built program, so a cached
// *Program is always structurally sound by construction; the certifier
// re-runs it as a defensive gate before trusting the IR, and mutation
// harnesses use it to keep generated mutants inside the space of valid
// (if wrong) programs.
func (p *Program) Validate() error {
	nodes := p.net.Nodes()
	// seen[v] == stamp marks node v as used by the current op; a fresh
	// stamp per op avoids clearing the slice between phases.
	seen := make([]int, nodes)
	for i := range seen {
		seen[i] = -1
	}
	s2Depth := 0
	for i := range p.ops {
		op := &p.ops[i]
		switch op.Kind {
		case OpCompareExchange, OpRoutedExchange:
			if len(op.Pairs) == 0 {
				return fmt.Errorf("schedule: op %d (%s): empty pair list", i, op.Kind)
			}
			if op.Cost < 1 {
				return fmt.Errorf("schedule: op %d (%s): cost %d < 1", i, op.Kind, op.Cost)
			}
			for j, pr := range op.Pairs {
				lo, hi := pr[0], pr[1]
				if lo < 0 || lo >= nodes || hi < 0 || hi >= nodes {
					return fmt.Errorf("schedule: op %d pair %d (%d,%d): node out of range [0,%d)",
						i, j, lo, hi, nodes)
				}
				if lo == hi {
					return fmt.Errorf("schedule: op %d pair %d: degenerate pair (%d,%d)", i, j, lo, hi)
				}
				if seen[lo] == i {
					return fmt.Errorf("schedule: op %d pair %d: node %d appears twice in one phase", i, j, lo)
				}
				if seen[hi] == i {
					return fmt.Errorf("schedule: op %d pair %d: node %d appears twice in one phase", i, j, hi)
				}
				seen[lo], seen[hi] = i, i
			}
		case OpIdle:
			if op.Cost < 1 {
				return fmt.Errorf("schedule: op %d (idle): cost %d < 1", i, op.Cost)
			}
		case OpBeginS2:
			s2Depth++
		case OpEndS2:
			s2Depth--
			if s2Depth < 0 {
				return fmt.Errorf("schedule: op %d: end-s2 without matching begin-s2", i)
			}
		case OpS2Marker, OpSweepMarker:
			// markers carry no structure
		case OpMergeMarker:
			if op.Dim < 3 || op.Dim > p.net.R() {
				return fmt.Errorf("schedule: op %d: merge marker for dimension %d outside [3,%d]", i, op.Dim, p.net.R())
			}
		default:
			return fmt.Errorf("schedule: op %d: unknown kind %d", i, uint8(op.Kind))
		}
	}
	if s2Depth != 0 {
		return fmt.Errorf("schedule: %d unclosed begin-s2 bracket(s)", s2Depth)
	}
	return nil
}

// NewProgram assembles a program directly from an op list under the
// caller's canonical signature, validating it and recomputing the
// replay clock from the ops' recorded costs (no re-pricing: the
// caller's costs are trusted, only structure is checked). Programs
// built this way never enter the process-wide cache. Its callers are
// the emitters of internal/emit, whose engine ("multiway4",
// "periodic", ...) and signature ("emit|periodic|n=16", ...) name the
// family so tracing and bench artifacts attribute rounds without a
// side channel, and program surgery — the mutation-testing harness in
// internal/cert, the randomized engine's realized schedules, tests
// with hand-built schedules — which passes the signature "adhoc".
func NewProgram(net *product.Network, engine, sig string, ops []Op) (*Program, error) {
	p := &Program{net: net, engine: engine, sig: sig, ops: ops, clock: clockOf(ops)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// clockOf rebuilds the precomputed replay clock of an op list, walking
// the same S2/sweep attribution the Builder maintains while recording.
func clockOf(ops []Op) (clk simnet.Clock) {
	inS2 := false
	charge := func(cost int) {
		clk.Rounds += cost
		if inS2 {
			clk.S2Rounds += cost
		} else {
			clk.SweepRounds += cost
		}
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpCompareExchange, OpRoutedExchange:
			if op.Kind == OpRoutedExchange {
				clk.RoutedPhases++
			}
			clk.ComparePhases++
			clk.CompareOps += len(op.Pairs)
			charge(op.Cost)
		case OpIdle:
			charge(op.Cost)
		case OpBeginS2:
			inS2 = true
		case OpEndS2:
			inS2 = false
		case OpS2Marker:
			clk.S2Phases++
		case OpSweepMarker:
			clk.SweepPhases++
		}
	}
	return clk
}
