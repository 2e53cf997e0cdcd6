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
	// node-disjoint (lo, hi) pairs.
	CompareExchange(pairs [][2]int)
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
	dims := []int{dimA, dimB}
	bases := net.BlockBases(dims)
	m.BeginS2()
	k := ceilLog2(net.Radix(dimB)) // nB rows
	for i := 0; i < k; i++ {
		rowPhase(m, bases, dimA, dimB, asc)
		columnPhase(m, bases, dimA, dimB, asc)
	}
	rowPhase(m, bases, dimA, dimB, asc)
	m.EndS2()
	m.AddS2Phase()
}

// rowPhase runs n rounds of odd-even transposition within every row of
// every block. Row v of an ascending block sorts ascending-by-dimA when
// v is even; descending blocks flip every direction.
func rowPhase(m Machine, bases []int, dimA, dimB int, asc func(base int) bool) {
	net := m.Net()
	nA, nB := net.Radix(dimA), net.Radix(dimB)
	for t := 0; t < nA; t++ {
		var pairs [][2]int
		for _, base := range bases {
			up := asc(base)
			for v := 0; v < nB; v++ {
				rowBase := net.SetDigit(base, dimB, v)
				rowAsc := (v%2 == 0) == up
				for a := t % 2; a+1 < nA; a += 2 {
					x := net.SetDigit(rowBase, dimA, a)
					y := net.SetDigit(rowBase, dimA, a+1)
					if rowAsc {
						pairs = append(pairs, [2]int{x, y})
					} else {
						pairs = append(pairs, [2]int{y, x})
					}
				}
			}
		}
		m.CompareExchange(pairs)
	}
}

// columnPhase runs n rounds of odd-even transposition within every
// column of every block; ascending blocks sort columns ascending-by-dimB.
func columnPhase(m Machine, bases []int, dimA, dimB int, asc func(base int) bool) {
	net := m.Net()
	nA, nB := net.Radix(dimA), net.Radix(dimB)
	for t := 0; t < nB; t++ {
		var pairs [][2]int
		for _, base := range bases {
			up := asc(base)
			for a := 0; a < nA; a++ {
				colBase := net.SetDigit(base, dimA, a)
				for v := t % 2; v+1 < nB; v += 2 {
					x := net.SetDigit(colBase, dimB, v)
					y := net.SetDigit(colBase, dimB, v+1)
					if up {
						pairs = append(pairs, [2]int{x, y})
					} else {
						pairs = append(pairs, [2]int{y, x})
					}
				}
			}
		}
		m.CompareExchange(pairs)
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

// Sort implements Engine.
func (SnakeOET) Sort(m Machine, dimA, dimB int, asc func(base int) bool) {
	net := m.Net()
	dims := []int{dimA, dimB}
	bases := net.BlockBases(dims)
	size := net.BlockSize(dims)
	m.BeginS2()
	for t := 0; t < size; t++ {
		var pairs [][2]int
		for _, base := range bases {
			up := asc(base)
			for p := t % 2; p+1 < size; p += 2 {
				x := net.NodeInBlock(base, dims, p)
				y := net.NodeInBlock(base, dims, p+1)
				if up {
					pairs = append(pairs, [2]int{x, y})
				} else {
					pairs = append(pairs, [2]int{y, x})
				}
			}
		}
		m.CompareExchange(pairs)
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
func (Opt4) Sort(m Machine, dimA, dimB int, asc func(base int) bool) {
	net := m.Net()
	if net.Radix(dimA) != 2 || net.Radix(dimB) != 2 {
		panic("sort2d: Opt4 requires N=2")
	}
	dims := []int{dimA, dimB}
	bases := net.BlockBases(dims)
	node := func(base, pos int) int { return net.NodeInBlock(base, dims, pos) }
	schedule := [][][2]int{
		{{0, 1}, {2, 3}},
		{{0, 3}, {1, 2}},
		{{0, 1}, {2, 3}},
	}
	m.BeginS2()
	for _, round := range schedule {
		var pairs [][2]int
		for _, base := range bases {
			up := asc(base)
			for _, c := range round {
				x, y := node(base, c[0]), node(base, c[1])
				if up {
					pairs = append(pairs, [2]int{x, y})
				} else {
					pairs = append(pairs, [2]int{y, x})
				}
			}
		}
		m.CompareExchange(pairs)
	}
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
