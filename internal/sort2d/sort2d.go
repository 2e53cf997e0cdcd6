// Package sort2d sorts the two-dimensional blocks of a product network
// in snake order. It supplies the S_2(N) primitive the paper's
// generalized merge algorithm assumes: "an algorithm which can sort N^2
// keys" on PG_2 (Section 3.2).
//
// Engines operate on every PG_2 block of the machine simultaneously
// (disjoint blocks run in parallel on the simulated machine, so a phase
// costs the same whether it touches one block or all of them), and each
// block may be sorted ascending or descending in its local snake order —
// Step 4 of the merge needs alternating directions.
//
// Two general engines are provided: Shearsort, which needs
// (2⌈log2 N⌉+1)·N compare-exchange rounds, and SnakeOET, a plain
// odd-even transposition sort along the block's N^2-element snake. The
// paper plugs in Schnorr–Shamir (3N+o(N)) for grids; shearsort is used
// here instead because it runs verbatim on any factor graph — the
// substitution changes S_2's constant only (see DESIGN.md). For N=2 the
// Opt4 engine sorts a 4-node block in the optimal 3 rounds, matching the
// paper's hypercube constant.
package sort2d

import (
	"fmt"

	"productsort/internal/product"
)

// Machine is the abstract synchronous machine that engines (and the
// merge algorithm of package core) emit compare-exchange phases to. Two
// implementations exist: the live simulator (*simnet.Machine), which
// moves keys and charges rounds as phases arrive, and the schedule
// recorder (*schedule.Builder), which compiles the oblivious phase
// stream into a reusable program. The algorithm code is identical either
// way — the schedule depends only on the network, never on the keys.
type Machine interface {
	// Net returns the product network the phases address.
	Net() *product.Network
	// CompareExchange performs (or records) one parallel phase of
	// node-disjoint (lo, hi) pairs. pairs may be any slice, which the
	// machine reads only during the call, or a phase built in a
	// PairBuffer, which a recording machine keeps without a copy.
	CompareExchange(pairs [][2]int)
	// PairBuffer returns an empty buffer with room for n pairs, valid
	// until the next PairBuffer call. An engine builds phases in it and
	// passes them, whole or as sub-slices, to CompareExchange, the same
	// phase as often as it repeats; it must not write to a passed phase
	// afterwards.
	PairBuffer(n int) [][2]int
	// IdleRound charges one round with no data movement (the oblivious
	// schedule spends the step even when no processor has a partner).
	IdleRound()
	// BeginS2 and EndS2 bracket rounds attributable to PG_2 sorting.
	BeginS2()
	EndS2()
	// AddS2Phase records one completed S_2 invocation.
	AddS2Phase()
	// AddSweepPhase records one inter-subgraph transposition sweep.
	AddSweepPhase()
	// BeginMerge marks the start of the merge along dimension k
	// (Section 3.3: one merge per dimension 3..r after the base S_2
	// sort); it moves no data and costs nothing.
	BeginMerge(k int)
}

// Engine sorts every PG_2 block spanned by two dimensions.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Rounds predicts the compare-exchange rounds of one invocation for
	// factor size n, assuming a Hamiltonian-labeled factor (each round
	// then costs one machine round).
	Rounds(n int) int
	// RoundsAB predicts the rounds for one invocation on heterogeneous
	// nA×nB blocks (nA = dimension-1-role radix); RoundsAB(n, n) equals
	// Rounds(n).
	RoundsAB(nA, nB int) int
	// Sort sorts each block spanned by (dimA, dimB) — dimA playing the
	// "dimension 1" role of the block's snake order — into ascending
	// block-snake order where asc(base) is true and descending where
	// false. It must process all blocks in lockstep and record exactly
	// one S2 phase on the machine's clock.
	Sort(m Machine, dimA, dimB int, asc func(base int) bool)
}

// ascendingAll is the direction function for uniform ascending sorts.
func AscendingAll(int) bool { return true }

// Shearsort is the generic S_2 engine: ⌈log2 N⌉+1 alternating-direction
// row phases interleaved with ⌈log2 N⌉ column phases, each phase N
// rounds of odd-even transposition. Rows and columns are G-subgraphs, so
// every comparator touches label-consecutive factor symbols.
type Shearsort struct{}

// Name implements Engine.
func (Shearsort) Name() string { return "shearsort" }

// Rounds implements Engine: (2⌈log2 N⌉+1)·N. For N=2 every odd-parity
// transposition round is structurally empty (there is no pair starting
// at index 1), so each phase charges a single round and the total is 3.
func (Shearsort) Rounds(n int) int { return (Shearsort{}).RoundsAB(n, n) }

// RoundsAB predicts the rounds for a heterogeneous nA×nB block (nA =
// dimension-1-role radix, nB = number of rows): ⌈log2 nB⌉+1 row phases
// of effectively nA rounds and ⌈log2 nB⌉ column phases of nB rounds,
// with the n=2 empty-round trimming applied per axis.
func (Shearsort) RoundsAB(nA, nB int) int {
	rowCost := nA
	if nA == 2 {
		rowCost = 1
	}
	colCost := nB
	if nB == 2 {
		colCost = 1
	}
	k := ceilLog2(nB)
	return (k+1)*rowCost + k*colCost
}

// Sort implements Engine.
func (Shearsort) Sort(m Machine, dimA, dimB int, asc func(base int) bool) {
	net := m.Net()
	bases := net.BlockBases([]int{dimA, dimB})
	up := directions(bases, asc)
	m.BeginS2()
	k := ceilLog2(net.Radix(dimB)) // nB rows
	for i := 0; i < k; i++ {
		rowPhase(m, bases, up, dimA, dimB)
		columnPhase(m, bases, up, dimA, dimB)
	}
	rowPhase(m, bases, up, dimA, dimB)
	m.EndS2()
	m.AddS2Phase()
}

// directions evaluates asc once per base: up[i] = asc(bases[i]).
func directions(bases []int, asc func(base int) bool) []bool {
	up := make([]bool, len(bases))
	for i, base := range bases {
		up[i] = asc(base)
	}
	return up
}

// rowPhase runs n rounds of odd-even transposition within every row of
// every block. Row v of an ascending block sorts ascending-by-dimA when
// v is even; descending blocks flip every direction. A base has zero
// digits at dimA and dimB, so the node at (a, v) is base+a·sA+v·sB.
// up[i] is the direction of bases[i]. The even and the odd round are
// built once and alternate.
func rowPhase(m Machine, bases []int, up []bool, dimA, dimB int) {
	net := m.Net()
	nA, nB := net.Radix(dimA), net.Radix(dimB)
	sA, sB := net.Stride(dimA), net.Stride(dimB)
	var round [2][][2]int
	pairs := m.PairBuffer(len(bases) * nB * (nA - 1))
	for t := range round {
		start := len(pairs)
		for i, base := range bases {
			for v := 0; v < nB; v++ {
				rowBase := base + v*sB
				rowAsc := (v%2 == 0) == up[i]
				for a := t; a+1 < nA; a += 2 {
					x := rowBase + a*sA
					if rowAsc {
						pairs = append(pairs, [2]int{x, x + sA})
					} else {
						pairs = append(pairs, [2]int{x + sA, x})
					}
				}
			}
		}
		round[t] = pairs[start:]
	}
	for t := 0; t < nA; t++ {
		m.CompareExchange(round[t%2])
	}
}

// columnPhase runs n rounds of odd-even transposition within every
// column of every block; ascending blocks sort columns ascending-by-dimB.
func columnPhase(m Machine, bases []int, up []bool, dimA, dimB int) {
	net := m.Net()
	nA, nB := net.Radix(dimA), net.Radix(dimB)
	sA, sB := net.Stride(dimA), net.Stride(dimB)
	var round [2][][2]int
	pairs := m.PairBuffer(len(bases) * nA * (nB - 1))
	for t := range round {
		start := len(pairs)
		for i, base := range bases {
			for a := 0; a < nA; a++ {
				colBase := base + a*sA
				for v := t; v+1 < nB; v += 2 {
					x := colBase + v*sB
					if up[i] {
						pairs = append(pairs, [2]int{x, x + sB})
					} else {
						pairs = append(pairs, [2]int{x + sB, x})
					}
				}
			}
		}
		round[t] = pairs[start:]
	}
	for t := 0; t < nB; t++ {
		m.CompareExchange(round[t%2])
	}
}

// SnakeOET sorts each block by running N^2 rounds of odd-even
// transposition along the block's snake sequence. Simple, slower than
// shearsort for N ≥ 4; used as an ablation baseline for the S_2 engine
// choice.
type SnakeOET struct{}

// Name implements Engine.
func (SnakeOET) Name() string { return "snake-oet" }

// Rounds implements Engine: N^2.
func (SnakeOET) Rounds(n int) int { return n * n }

// RoundsAB implements Engine: the block size nA·nB.
func (SnakeOET) RoundsAB(nA, nB int) int { return nA * nB }

// Sort implements Engine. The even and the odd round are built once
// and alternate.
func (SnakeOET) Sort(m Machine, dimA, dimB int, asc func(base int) bool) {
	net := m.Net()
	dims := []int{dimA, dimB}
	bases := net.BlockBases(dims)
	off := net.BlockOffsets(dims)
	up := directions(bases, asc)
	size := len(off)
	var round [2][][2]int
	pairs := m.PairBuffer(len(bases) * (size - 1))
	for t := range round {
		start := len(pairs)
		for i, base := range bases {
			for p := t; p+1 < size; p += 2 {
				x, y := base+off[p], base+off[p+1]
				if up[i] {
					pairs = append(pairs, [2]int{x, y})
				} else {
					pairs = append(pairs, [2]int{y, x})
				}
			}
		}
		round[t] = pairs[start:]
	}
	m.BeginS2()
	for t := 0; t < size; t++ {
		m.CompareExchange(round[t%2])
	}
	m.EndS2()
	m.AddS2Phase()
}

// Opt4 sorts 2x2 blocks (N=2 factors, e.g. the hypercube) in the optimal
// three rounds, matching the paper's "sort in snake order on the
// two-dimensional hypercube in three steps".
type Opt4 struct{}

// Name implements Engine.
func (Opt4) Name() string { return "opt4" }

// Rounds implements Engine: 3.
func (Opt4) Rounds(n int) int {
	if n != 2 {
		panic("sort2d: Opt4 requires N=2")
	}
	return 3
}

// RoundsAB implements Engine.
func (Opt4) RoundsAB(nA, nB int) int {
	if nA != 2 || nB != 2 {
		panic("sort2d: Opt4 requires N=2")
	}
	return 3
}

// Sort implements Engine. In block snake positions (00, 01, 11, 10) the
// schedule is comparators (0,1)(2,3); (0,3)(1,2); (0,1)(2,3), a valid
// 4-element sorting network whose comparators all follow block edges.
// Its first and last rounds are the same phase, so each block's
// direction is read once and two phases are built.
func (Opt4) Sort(m Machine, dimA, dimB int, asc func(base int) bool) {
	net := m.Net()
	if net.Radix(dimA) != 2 || net.Radix(dimB) != 2 {
		panic("sort2d: Opt4 requires N=2")
	}
	dims := []int{dimA, dimB}
	bases := net.BlockBases(dims)
	off := net.BlockOffsets(dims)
	n := 2 * len(bases)
	pairs := m.PairBuffer(2 * n)[:2*n]
	outer, inner := pairs[:n], pairs[n:] // (0,1)(2,3) and (0,3)(1,2)
	for i, base := range bases {
		p0, p1, p2, p3 := base+off[0], base+off[1], base+off[2], base+off[3]
		if asc(base) {
			outer[2*i], outer[2*i+1] = [2]int{p0, p1}, [2]int{p2, p3}
			inner[2*i], inner[2*i+1] = [2]int{p0, p3}, [2]int{p1, p2}
		} else {
			outer[2*i], outer[2*i+1] = [2]int{p1, p0}, [2]int{p3, p2}
			inner[2*i], inner[2*i+1] = [2]int{p3, p0}, [2]int{p2, p1}
		}
	}
	m.BeginS2()
	m.CompareExchange(outer)
	m.CompareExchange(inner)
	m.CompareExchange(outer)
	m.EndS2()
	m.AddS2Phase()
}

// Auto selects Opt4 for N=2 factors and Shearsort otherwise. It is the
// default engine of the public API.
type Auto struct{}

// Name implements Engine.
func (Auto) Name() string { return "auto" }

// Rounds implements Engine.
func (Auto) Rounds(n int) int { return (Auto{}).RoundsAB(n, n) }

// RoundsAB implements Engine.
func (Auto) RoundsAB(nA, nB int) int {
	if nA == 2 && nB == 2 {
		return 3
	}
	return (Shearsort{}).RoundsAB(nA, nB)
}

// Sort implements Engine.
func (Auto) Sort(m Machine, dimA, dimB int, asc func(base int) bool) {
	if m.Net().Radix(dimA) == 2 && m.Net().Radix(dimB) == 2 {
		Opt4{}.Sort(m, dimA, dimB, asc)
	} else {
		Shearsort{}.Sort(m, dimA, dimB, asc)
	}
}

// ByName returns the engine with the given name.
func ByName(name string) (Engine, error) {
	switch name {
	case "auto", "":
		return Auto{}, nil
	case "shearsort":
		return Shearsort{}, nil
	case "snake-oet":
		return SnakeOET{}, nil
	case "opt4":
		return Opt4{}, nil
	}
	return nil, fmt.Errorf("sort2d: unknown engine %q", name)
}

func ceilLog2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
