// Package schedule compiles the multiway-merge sorting algorithm into a
// typed, reusable phase program — the repo's intermediate representation
// for oblivious compare-exchange schedules.
//
// The paper's algorithm is oblivious (Section 3.2): its schedule depends
// only on the network, never on the keys. That makes the schedule a
// compile-once artifact: Compile runs the algorithm a single time
// against a recording Builder, prices every phase with the same cost
// model the live simulator uses (single-hop phases cost one round,
// routed phases the measured exchange-routing cost), and stores the
// result in a process-wide cache keyed by the network's canonical
// structural signature. Every later sort on a structurally identical
// network replays the cached program with zero schedule construction.
//
// The program is consumed by several replays: the columnar replay of
// the executed stream (RunBatchColumnar), which sorts every untraced,
// fault-free key set; the unpruned op replay (ExecBackend) and its
// faulted variant (ResilientBackend); the live simulator replay
// (ReplayOnMachine); merge-split block sorting (package blocksort); and
// the message-passing SPMD engine (package spmd). All of them observe
// identical round accounting because the charges are part of the IR,
// precomputed per Lemma 3 / Theorem 1.
package schedule

import (
	"fmt"
	"slices"
	"sync"

	"productsort/internal/product"
	"productsort/internal/simnet"
)

// OpKind discriminates the typed ops of a compiled phase program.
type OpKind uint8

const (
	// OpCompareExchange is a parallel compare-exchange phase whose pairs
	// are all product-network edges; it costs exactly one round.
	OpCompareExchange OpKind = iota
	// OpRoutedExchange is a compare-exchange phase with at least one
	// non-adjacent pair; its cost is the measured key-exchange routing
	// charge (Section 4's permutation-routing fallback).
	OpRoutedExchange
	// OpIdle charges one round with no data movement: the oblivious
	// schedule spends the synchronous step even when no processor has a
	// partner.
	OpIdle
	// OpBeginS2 and OpEndS2 bracket the ops attributable to PG_2
	// sorting, splitting Rounds into S2Rounds and SweepRounds.
	OpBeginS2
	OpEndS2
	// OpS2Marker records one completed S_2 invocation ((r-1)² per sort,
	// Theorem 1).
	OpS2Marker
	// OpSweepMarker records one completed inter-subgraph transposition
	// sweep ((r-1)(r-2) per sort, Theorem 1).
	OpSweepMarker
	// OpMergeMarker opens the merge along dimension Dim (core.Sorter's
	// Merge, k = 3..r); the ops before the first one are the base S_2
	// sort. The staged pass (stage.go) reads the markers as the
	// recursion's stage boundaries.
	OpMergeMarker
)

// String names the op kind for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpCompareExchange:
		return "compare-exchange"
	case OpRoutedExchange:
		return "routed-exchange"
	case OpIdle:
		return "idle"
	case OpBeginS2:
		return "begin-s2"
	case OpEndS2:
		return "end-s2"
	case OpS2Marker:
		return "s2-marker"
	case OpSweepMarker:
		return "sweep-marker"
	case OpMergeMarker:
		return "merge-marker"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one instruction of a compiled program.
type Op struct {
	// Kind discriminates the instruction.
	Kind OpKind
	// Pairs holds the node-disjoint (lo, hi) node-id pairs of an
	// exchange op; nil for idle rounds and markers.
	Pairs [][2]int
	// Cost is the precomputed round charge (1 for single-hop exchanges
	// and idle rounds, the routing charge for routed exchanges, 0 for
	// markers).
	Cost int
	// Dim is the 1-based product dimension every pair of an exchange op
	// differs in, or 0 when the op mixes dimensions (or is not an
	// exchange). It is part of the IR so tracing can attribute round
	// charges per dimension without re-deriving digits at replay time.
	// A merge marker carries its merge dimension k here.
	Dim int
}

// Program is a compiled, immutable phase program for one network (and
// one S_2 engine). It is safe for concurrent replay by any number of
// backends; consumers must not mutate the ops.
type Program struct {
	net    *product.Network
	engine string
	sig    string
	ops    []Op
	clock  simnet.Clock

	permOnce sync.Once
	perm     []int // snake position -> node id, built on first use

	lowerOnce sync.Once    // builds the executed stream on first use
	comps     []Comparator // snake-space comparators, pruned and grouped
	index     []int32      // index[k]: position of comps[k] in the unpruned stream
	chunks    []int32      // end offsets of the kernel's bounded slices of comps
}

// Comparator is one lowered compare-exchange in snake-position space:
// after it runs, column Lo holds the minimum and column Hi the maximum.
// Indices are int32 so the stream packs two comparators per cache line
// quarter; every network the repo builds fits comfortably.
type Comparator struct {
	Lo, Hi int32
}

// Net returns the product network the program was compiled for. Cached
// programs may be shared between structurally identical networks; the
// returned network is the one the first compilation saw.
func (p *Program) Net() *product.Network { return p.net }

// Engine returns the name of the S_2 engine the program embeds.
func (p *Program) Engine() string { return p.engine }

// Signature returns the canonical cache signature the program is stored
// under.
func (p *Program) Signature() string { return p.sig }

// Ops returns the program's instruction stream. The slice and the pair
// slices inside are shared — read only.
func (p *Program) Ops() []Op { return p.ops }

// Clock returns the precomputed counters of one full replay: because
// the schedule is oblivious, every execution of the program observes
// exactly these rounds and phase counts, so backends report them
// without re-deriving costs.
func (p *Program) Clock() simnet.Clock { return p.clock }

// Rounds returns the total parallel round charge of one replay.
func (p *Program) Rounds() int { return p.clock.Rounds }

// Nodes returns the network's processor count — the largest key set one
// replay of the program can sort, and therefore the run-size ceiling of
// any tier (batch replay, streaming run formation) built on top of it.
func (p *Program) Nodes() int { return p.net.Nodes() }

// SnakePerm returns the snake-to-node transpose table (perm[pos] is the
// node id holding snake position pos), built once per program and shared
// by every batch replay. Read only.
func (p *Program) SnakePerm() []int {
	p.permOnce.Do(func() {
		p.perm = make([]int, p.net.Nodes())
		for pos := range p.perm {
			p.perm[pos] = p.net.NodeAtSnake(pos)
		}
	})
	return p.perm
}

// LoweredComparators returns the program's executed comparator stream
// in snake-position space. Lowering maps every exchange op's (lo, hi)
// node-id pairs through the inverse snake permutation and concatenates
// them in execution order (idle rounds and markers move no data, so they
// vanish); the pruning pass (prune.go) then drops every comparator
// that provably never swaps — by the staged certificate's exact live
// set (stage.go) where the program has one, and by the known-order
// facts — and the locality pass (group.go) reorders
// the rest block by block, keeping every position's own comparators in
// program order. What remains is exactly the instruction stream the
// columnar kernel replays, with no per-op decode and no interface
// dispatch. Built once per program, on first use, and shared — read
// only. Replaying it over snake-indexed storage gives the same output,
// byte for byte, as replaying the ops over node-indexed storage (pinned
// by TestLoweredComparatorsEquivalence and FuzzColumnarEquivalence;
// THEORY.md §13, §17 and §18).
func (p *Program) LoweredComparators() []Comparator {
	p.lower()
	return p.comps
}

// lower builds the executed stream once: the unpruned stream, pruned
// with the stage facts where the program has them, then grouped.
func (p *Program) lower() {
	p.lowerOnce.Do(func() {
		all := p.unprunedLowered()
		comps, index := pruneComparators(all, p.net.Nodes(), p.stageDead(all))
		var err error
		if p.comps, p.index, p.chunks, err = lowerExecuted(comps, index, p.net.Nodes()); err != nil {
			panic(err) // the grouping pass broke its own invariant
		}
	})
}

// Executed returns the number of comparators one replay of the lowered
// stream executes: at most Size, which stays the paper's count.
func (p *Program) Executed() int { return len(p.LoweredComparators()) }

// ExecutedIndex maps the executed stream back to the ops:
// ExecutedIndex()[k] is the position of LoweredComparators()[k] in the
// unpruned stream, which numbers the pairs of the exchange ops 0, 1, …
// in op order and pair order. It follows the grouped order, so it is
// increasing only along each position's comparators. Read only.
func (p *Program) ExecutedIndex() []int32 {
	p.lower()
	return p.index
}

// kernelChunks returns the end offsets that cut the executed stream
// into the slices one kernel call replays.
func (p *Program) kernelChunks() []int32 {
	p.lower()
	return p.chunks
}

// WithExecuted returns a program with p's ops (shared, read only) whose
// executed stream is the unpruned comparators at the given increasing
// flat indices (numbered as in ExecutedIndex), grouped as
// LoweredComparators groups a pruned stream;
// no pruning pass runs on it. It exists so the certifier's mutation
// harness can build a program whose pruning is wrong, and so tests can
// replay the unpruned stream.
func (p *Program) WithExecuted(index []int32) (*Program, error) {
	all := p.unprunedLowered()
	comps := make([]Comparator, len(index))
	for k, f := range index {
		if f < 0 || int(f) >= len(all) || (k > 0 && f <= index[k-1]) {
			return nil, fmt.Errorf("schedule: executed index %d at %d is out of range or order", f, k)
		}
		comps[k] = all[f]
	}
	q := &Program{net: p.net, engine: p.engine, sig: p.sig, ops: p.ops, clock: p.clock}
	var err error
	if q.comps, q.index, q.chunks, err = lowerExecuted(comps, append([]int32(nil), index...), p.net.Nodes()); err != nil {
		return nil, err
	}
	q.lowerOnce.Do(func() {})
	return q, nil
}

// unprunedLowered lowers every exchange pair of the ops into snake
// space, in execution order.
func (p *Program) unprunedLowered() []Comparator {
	perm := p.SnakePerm()
	inv := make([]int32, len(perm))
	for pos, node := range perm {
		inv[node] = int32(pos)
	}
	comps := make([]Comparator, 0, p.clock.CompareOps)
	for i := range p.ops {
		switch p.ops[i].Kind {
		case OpCompareExchange, OpRoutedExchange:
			for _, pr := range p.ops[i].Pairs {
				comps = append(comps, Comparator{Lo: inv[pr[0]], Hi: inv[pr[1]]})
			}
		}
	}
	return comps
}

// Depth returns the number of round-consuming ops (exchange phases plus
// idle rounds).
func (p *Program) Depth() int {
	d := 0
	for i := range p.ops {
		switch p.ops[i].Kind {
		case OpCompareExchange, OpRoutedExchange, OpIdle:
			d++
		}
	}
	return d
}

// Size returns the total comparator count of one replay.
func (p *Program) Size() int { return p.clock.CompareOps }

// Phases returns the non-empty compare-exchange phases in node-id
// space, in execution order, every comparator included (the
// known-order pass prunes only the lowered stream). The returned slices
// are fresh copies.
func (p *Program) Phases() [][][2]int {
	var phases [][][2]int
	for i := range p.ops {
		op := &p.ops[i]
		if op.Kind != OpCompareExchange && op.Kind != OpRoutedExchange {
			continue
		}
		cp := make([][2]int, len(op.Pairs))
		copy(cp, op.Pairs)
		phases = append(phases, cp)
	}
	return phases
}

// Builder records the algorithm's emitted phases into a Program. It
// implements sort2d.Machine, so core.Sorter drives it exactly as it
// drives a live simulator — same code path, no keys.
type Builder struct {
	net   *product.Network
	cost  *simnet.CostModel
	ops   []Op
	clock simnet.Clock
	inS2  bool
	free  [][2]int // unused capacity of the current pair chunk
}

// NewBuilder returns an empty builder for net.
func NewBuilder(net *product.Network) *Builder {
	return &Builder{net: net, cost: simnet.NewCostModel()}
}

// Net implements sort2d.Machine.
func (b *Builder) Net() *product.Network { return b.net }

// CompareExchange implements sort2d.Machine: it validates and prices
// the phase with the simulator's cost model and records it as a typed
// op. Empty phases are ignored, mirroring the live machine.
func (b *Builder) CompareExchange(pairs [][2]int) {
	n := len(pairs)
	if n == 0 {
		return
	}
	cp := b.keep(pairs)
	cost, dim := b.cost.PhaseCost(b.net, cp)
	kind := OpCompareExchange
	if cost > 1 {
		kind = OpRoutedExchange
		b.clock.RoutedPhases++
	}
	b.ops = append(b.ops, Op{Kind: kind, Pairs: cp, Cost: cost, Dim: dim})
	b.clock.ComparePhases++
	b.clock.CompareOps += n
	b.charge(cost)
}

// keep returns the pairs an op records for a non-empty phase. A phase
// built at the head of the free part of the pair chunk stays where it
// is, and a phase passed again shares the earlier op's pairs: an
// engine does not write to a phase it has passed. Any other phase is
// copied, outside the chunk, since it may lie in a buffer the engine
// still fills.
func (b *Builder) keep(pairs [][2]int) [][2]int {
	n := len(pairs)
	if cap(b.free) > 0 && &pairs[0] == &b.free[:1][0] {
		b.free = b.free[n:n]
		return pairs[:n:n]
	}
	for i := len(b.ops) - 1; i >= max(len(b.ops)-phaseReuse, 0); i-- {
		if op := b.ops[i].Pairs; len(op) == n && &op[0] == &pairs[0] {
			return op
		}
	}
	return slices.Clone(pairs)
}

// phaseReuse is how many ops back keep looks for a repeated phase:
// Opt4 repeats its first round two exchanges later.
const phaseReuse = 2

// PairBuffer implements sort2d.Machine: the free part of the current
// pair chunk, so a phase built there is recorded without a copy. A new
// chunk holds at least eight pairs per node, so a program's phases
// share a few allocations.
func (b *Builder) PairBuffer(n int) [][2]int {
	if cap(b.free) < n {
		b.free = make([][2]int, 0, max(n, 8*b.net.Nodes()))
	}
	return b.free[:0:n]
}

// IdleRound implements sort2d.Machine.
func (b *Builder) IdleRound() {
	b.ops = append(b.ops, Op{Kind: OpIdle, Cost: 1})
	b.charge(1)
}

// BeginS2 implements sort2d.Machine.
func (b *Builder) BeginS2() {
	b.inS2 = true
	b.ops = append(b.ops, Op{Kind: OpBeginS2})
}

// EndS2 implements sort2d.Machine.
func (b *Builder) EndS2() {
	b.inS2 = false
	b.ops = append(b.ops, Op{Kind: OpEndS2})
}

// AddS2Phase implements sort2d.Machine.
func (b *Builder) AddS2Phase() {
	b.clock.S2Phases++
	b.ops = append(b.ops, Op{Kind: OpS2Marker})
}

// AddSweepPhase implements sort2d.Machine.
func (b *Builder) AddSweepPhase() {
	b.clock.SweepPhases++
	b.ops = append(b.ops, Op{Kind: OpSweepMarker})
}

// BeginMerge implements sort2d.Machine: it records the merge marker
// that opens merge k.
func (b *Builder) BeginMerge(k int) {
	b.ops = append(b.ops, Op{Kind: OpMergeMarker, Dim: k})
}

// charge accrues a round cost with S2/sweep attribution.
func (b *Builder) charge(cost int) {
	b.clock.Rounds += cost
	if b.inS2 {
		b.clock.S2Rounds += cost
	} else {
		b.clock.SweepRounds += cost
	}
}

// Program freezes the builder into an immutable program.
func (b *Builder) Program(engine, sig string) *Program {
	return &Program{net: b.net, engine: engine, sig: sig, ops: b.ops, clock: b.clock}
}
