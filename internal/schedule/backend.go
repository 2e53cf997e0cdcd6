// Replay: running a compiled program against keys.

package schedule

import (
	"fmt"
	"math"

	"productsort/internal/obs"
	"productsort/internal/simnet"
	"productsort/internal/sort2d"
)

// ExecBackend is the unpruned replay: it applies every exchange pair of
// every op with simnet.Exchange and charges the precomputed costs — no
// validation, no routing-plan lookups, no allocation. It is the traced
// replay behind CompiledNetwork.Sort and the tests' oracle for the
// executed stream.
type ExecBackend struct {
	// Tracer receives a phase begin/end event pair per round-consuming
	// op. nil disables tracing; the disabled path stays allocation-free
	// (asserted by TestExecBackendDisabledTracerZeroAlloc).
	Tracer obs.Tracer
}

// Run sorts keys (indexed by node id) in place and returns the
// program's precomputed clock: the program is oblivious, so every
// replay costs exactly that.
func (e ExecBackend) Run(prog *Program, keys []simnet.Key) (simnet.Clock, error) {
	if len(keys) != prog.net.Nodes() {
		return simnet.Clock{}, fmt.Errorf("schedule: %d keys for %d nodes", len(keys), prog.net.Nodes())
	}
	inS2 := false
	for i := range prog.ops {
		op := &prog.ops[i]
		switch op.Kind {
		case OpCompareExchange, OpRoutedExchange, OpIdle:
			if e.Tracer == nil {
				simnet.Exchange(keys, op.Pairs)
				continue
			}
			ev := phaseEvent(op, i, inS2)
			e.Tracer.PhaseBegin(ev)
			simnet.Exchange(keys, op.Pairs)
			e.Tracer.PhaseEnd(ev)
		case OpBeginS2:
			inS2 = true
		case OpEndS2:
			inS2 = false
		}
	}
	return prog.clock, nil
}

// phaseEvent assembles the trace payload of one round-consuming op.
func phaseEvent(op *Op, index int, inS2 bool) obs.Phase {
	kind := obs.PhaseExchange
	switch op.Kind {
	case OpRoutedExchange:
		kind = obs.PhaseRouted
	case OpIdle:
		kind = obs.PhaseIdle
	}
	return obs.Phase{
		Index: index,
		Kind:  kind,
		Dim:   op.Dim,
		S2:    inS2,
		Cost:  op.Cost,
		Pairs: len(op.Pairs),
	}
}

// ReplayOnMachine re-executes every op of the program on a machine
// through the machine's own accounting API, so the machine's clock is
// rebuilt from first principles: a live simulator's can be compared
// with the program's precomputed clock, and a Builder over another
// network re-prices the program there.
func ReplayOnMachine(prog *Program, m sort2d.Machine) {
	for i := range prog.ops {
		op := &prog.ops[i]
		switch op.Kind {
		case OpCompareExchange, OpRoutedExchange:
			m.CompareExchange(op.Pairs)
		case OpIdle:
			m.IdleRound()
		case OpBeginS2:
			m.BeginS2()
		case OpEndS2:
			m.EndS2()
		case OpS2Marker:
			m.AddS2Phase()
		case OpSweepMarker:
			m.AddSweepPhase()
		case OpMergeMarker:
			m.BeginMerge(op.Dim)
		}
	}
}

// Sentinel is the padding key batch replay writes into scratch slots of
// items shorter than the network: the maximum Key value, so after the
// oblivious replay every sentinel sits at the top of the snake order and
// the item's own keys occupy the snake prefix (see THEORY.md §12 for why
// the 0-1 certification argument survives the padding).
const Sentinel simnet.Key = math.MaxInt64
