// Package core implements the paper's primary contribution: the
// generalized multiway-merge sorting algorithm for homogeneous product
// networks (Fernández & Efe, Sections 3 and 4).
//
// The algorithm sorts the N^r keys of an r-dimensional product network
// PG_r into snake order. It first sorts every two-dimensional subgraph
// at dimensions {1,2} with an assumed S_2 engine (package sort2d), then
// repeatedly merges N sorted blocks along each further dimension:
//
//	Merge on PG_k (Section 3.1 / Section 4):
//	  Step 1 — distribute each input A_u into subsequences B_{u,v}.
//	            Free: by the Gray-code split property, B_{u,v} already
//	            sits on the subgraph [u,v]PG^{k,1}_{k-2} in snake order.
//	  Step 2 — merge columns recursively (base case: one S_2 sort).
//	  Step 3 — interleave. Free: re-reading PG_k in snake order is the
//	            interleaving.
//	  Step 4 — clean the ≤N² dirty area: sort each PG_2 subgraph at
//	            dimensions {1,2} in alternating snake direction, run two
//	            odd-even transposition sweeps between snake-consecutive
//	            PG_2 subgraphs, sort the subgraphs again.
//
// Direction conventions (derived from Definition 2): the global snake
// order of a block traverses the PG_2 subgraph with group label q in
// forward local snake order when q has even Hamming weight and in
// reverse order when odd. Sorting a subgraph "nondecreasing along the
// global order" therefore means: locally ascending for even groups,
// locally descending for odd groups. Transposition partners are the
// nodes with equal dimension-{1,2} digits in consecutive groups; their
// labels differ by one in exactly one symbol, so they are adjacent when
// the factor is Hamiltonian-labeled and otherwise one routed exchange
// apart — exactly the paper's fallback.
package core

import (
	"fmt"

	"productsort/internal/product"
	"productsort/internal/simnet"
	"productsort/internal/sort2d"
)

// Sorter runs the multiway-merge sorting algorithm with a pluggable
// S_2 engine.
type Sorter struct {
	// Engine is the PG_2 snake sorter (the paper's assumed S_2
	// algorithm). Defaults to sort2d.Auto.
	Engine sort2d.Engine
	// Observer, when non-nil, is invoked after every major stage with a
	// description; used to trace the paper's worked example.
	Observer func(stage string, m sort2d.Machine)
}

// New returns a Sorter with the given engine (nil selects sort2d.Auto).
func New(engine sort2d.Engine) *Sorter {
	if engine == nil {
		engine = sort2d.Auto{}
	}
	return &Sorter{Engine: engine}
}

// Sort sorts the machine's keys into nondecreasing snake order over the
// whole network (Section 3.3): initial S_2 sorts on the dimension-{1,2}
// subgraphs, then one multiway merge per further dimension.
//
// Heterogeneous networks are supported when the factor sizes of
// dimensions 2..r are nonincreasing (dimension 1 is unconstrained):
// the generalized Lemma 1 bounds the dirty window of a merge along
// dimension k by N₁·N_k, and Step 4's cleaning blocks hold N_ℓ·N_{ℓ+1}
// keys at recursion level ℓ, so the window fits within two blocks
// exactly when N_k ≤ N_{ℓ+1} for every level — i.e. nonincreasing
// radices above dimension 1. Sort panics otherwise; the public API
// validates constructions up front.
func (s *Sorter) Sort(m sort2d.Machine) {
	r := m.Net().R()
	switch {
	case r < 1:
		panic("core: network has no dimensions")
	case r == 1:
		s.sort1D(m)
		return
	}
	ValidateRadices(m.Net())
	s.Engine.Sort(m, 1, 2, sort2d.AscendingAll)
	s.observe("initial S2 sort of dimension-{1,2} subgraphs", m)
	for k := 3; k <= r; k++ {
		s.Merge(m, k)
		s.observe(fmt.Sprintf("after merge along dimension %d", k), m)
	}
}

// Merge merges along dimension k: it combines, within every PG_k block
// at dimensions 1..k, the N sorted slabs [u]PG^k_{k-1} into a single
// block sorted in local snake order.
//
// Precondition: for every value u, the keys of each slab with digit u at
// dimension k are nondecreasing in the slab's local snake order over
// dimensions 1..k-1.
//
// The merge first marks its stage (m.BeginMerge(k)): the compiled
// program's staged certificate and pass read those markers as the
// boundaries of the recursion (THEORY.md §18).
func (s *Sorter) Merge(m sort2d.Machine, k int) {
	m.BeginMerge(k)
	s.merge(m, dimRange(k), false)
}

// MergeSkipTopClean performs Merge but omits the outermost Step 4, so
// the keys are left in the "almost sorted" state after Step 3. Used to
// measure the dirty area of Lemma 1 experimentally.
func (s *Sorter) MergeSkipTopClean(m sort2d.Machine, k int) {
	s.merge(m, dimRange(k), true)
}

// merge implements the recursive multiway merge over an ordered
// dimension list: dims[0] plays the paper's "dimension 1" (the split
// dimension of Step 1), dims[len-1] is the merge dimension carrying the
// N input slabs. Steps 1 and 3 are free re-interpretations of storage;
// only Step 2's base case and Step 4 move keys.
func (s *Sorter) merge(m sort2d.Machine, dims []int, skipClean bool) {
	k := len(dims)
	if k < 2 {
		panic("core: merge needs at least two dimensions")
	}
	if k == 2 {
		// Base case: a recursive merge would make no progress on N^2
		// keys (Section 3.2), so sort PG_2 directly.
		s.Engine.Sort(m, dims[0], dims[1], sort2d.AscendingAll)
		return
	}
	// Step 2: the columns B_{*,v} of every block are merged in parallel.
	// One recursive call covers all values v at once because the
	// machine's phases already run across all blocks simultaneously.
	s.merge(m, dims[1:], false)
	// Step 4.
	if !skipClean {
		s.cleanDirty(m, dims)
	}
}

// cleanDirty is Step 4 of the merge on the given dimension list: it
// repairs the ≤N² dirty window left after interleaving.
func (s *Sorter) cleanDirty(m sort2d.Machine, dims []int) {
	net := m.Net()
	dimA, dimB := dims[0], dims[1]
	groupDims := dims[2:]
	asc := func(base int) bool { return net.BlockWeight(base, groupDims)%2 == 0 }

	s.Engine.Sort(m, dimA, dimB, asc)
	s.transposeSweep(m, dims, 0)
	s.transposeSweep(m, dims, 1)
	s.Engine.Sort(m, dimA, dimB, asc)
}

// transposeSweep runs one odd-even transposition step between
// snake-consecutive PG_2 subgraphs: pairs (g, g+1) of group indices with
// g ≡ phase (mod 2). Partner nodes share their dimension-{dimA,dimB}
// digits; the smaller key moves to group g.
func (s *Sorter) transposeSweep(m sort2d.Machine, dims []int, phase int) {
	net := m.Net()
	dimA, dimB := dims[0], dims[1]
	nA, nB := net.Radix(dimA), net.Radix(dimB)
	groupDims := dims[2:]
	sA, sB := net.Stride(dimA), net.Stride(dimB)
	groupOff := net.BlockOffsets(groupDims) // N^(k-2) groups for homogeneous networks
	outer := net.BlockBases(dims)           // one base per enclosing PG_k block
	// A base has zero digits at every dim of dims, so group g's node
	// (a, b) is base + groupOff[g] + a·sA + b·sB.
	var pairs [][2]int
	for _, base := range outer {
		for g := phase; g+1 < len(groupOff); g += 2 {
			lo, hi := base+groupOff[g], base+groupOff[g+1]
			for a := 0; a < nA; a++ {
				for b := 0; b < nB; b++ {
					o := a*sA + b*sB
					pairs = append(pairs, [2]int{lo + o, hi + o})
				}
			}
		}
	}
	if len(pairs) == 0 {
		// With N=2 and a single group pair, the odd phase has no
		// partners; the oblivious schedule still spends the round.
		m.IdleRound()
	} else {
		m.CompareExchange(pairs)
	}
	m.AddSweepPhase()
}

// sort1D sorts a one-dimensional network (PG_1 = G itself) by odd-even
// transposition on the node labels: N rounds, each a compare-exchange
// sweep between label-consecutive nodes (routed if G is not
// Hamiltonian-labeled). The paper assumes r ≥ 2; this completes the API.
func (s *Sorter) sort1D(m sort2d.Machine) {
	n := m.Net().N()
	for t := 0; t < n; t++ {
		var pairs [][2]int
		for a := t % 2; a+1 < n; a += 2 {
			pairs = append(pairs, [2]int{a, a + 1})
		}
		m.CompareExchange(pairs)
	}
}

func (s *Sorter) observe(stage string, m sort2d.Machine) {
	if s.Observer != nil {
		s.Observer(stage, m)
	}
}

// ValidateRadices panics unless the network's factor sizes satisfy the
// heterogeneous sorting condition: radix(2) ≥ radix(3) ≥ … ≥ radix(r).
// Homogeneous networks always pass.
func ValidateRadices(net *product.Network) {
	for dim := 3; dim <= net.R(); dim++ {
		if net.Radix(dim) > net.Radix(dim-1) {
			panic(fmt.Sprintf(
				"core: factor sizes above dimension 1 must be nonincreasing: radix(%d)=%d > radix(%d)=%d (reorder the dimensions)",
				dim, net.Radix(dim), dim-1, net.Radix(dim-1)))
		}
	}
}

// dimRange returns [1, 2, …, k].
func dimRange(k int) []int {
	dims := make([]int, k)
	for i := range dims {
		dims[i] = i + 1
	}
	return dims
}

// PredictedRounds evaluates Theorem 1 for a network and engine without
// running the sort: the exact round count on networks whose factors are
// all Hamiltonian-labeled (sweeps then cost one round each, idle or
// not), and a close upper bound otherwise. Heterogeneous radices are
// handled by walking the same dimension recursion the sort performs.
func PredictedRounds(net *product.Network, e sort2d.Engine) int {
	if e == nil {
		e = sort2d.Auto{}
	}
	r := net.R()
	if r == 1 {
		return net.Radix(1) // odd-even transposition on G
	}
	s2 := func(a, b int) int { return e.RoundsAB(net.Radix(a), net.Radix(b)) }
	rounds := s2(1, 2)
	for k := 3; k <= r; k++ {
		rounds += s2(k-1, k) // Step 2 base case of the merge over dims 1..k
		for l := 1; l <= k-2; l++ {
			rounds += 2*s2(l, l+1) + 2 // Step 4 at recursion level l
		}
	}
	return rounds
}

// PredictedS2Phases returns the number of S_2 invocations Theorem 1
// predicts for sorting an r-dimensional network: (r-1)^2.
func PredictedS2Phases(r int) int { return (r - 1) * (r - 1) }

// PredictedSweeps returns the number of inter-subgraph transposition
// sweeps Theorem 1 predicts: (r-1)(r-2).
func PredictedSweeps(r int) int { return (r - 1) * (r - 2) }

// PredictedMergeS2Phases returns the S_2 invocations of one merge along
// dimension k (Lemma 3): 2(k-2)+1.
func PredictedMergeS2Phases(k int) int { return 2*(k-2) + 1 }

// PredictedMergeSweeps returns the transposition sweeps of one merge
// along dimension k (Lemma 3): 2(k-2).
func PredictedMergeSweeps(k int) int { return 2 * (k - 2) }

// DirtyWindow returns the length of the smallest window outside of which
// a 0-1 key sequence is sorted: the distance from the first 1 to the
// last 0, plus one; 0 if the sequence is sorted. Keys must be 0 or 1.
func DirtyWindow(keys []simnet.Key) int {
	first1 := -1
	last0 := -1
	for i, k := range keys {
		switch k {
		case 0:
			last0 = i
		case 1:
			if first1 < 0 {
				first1 = i
			}
		default:
			panic("core: DirtyWindow needs 0-1 keys")
		}
	}
	if first1 < 0 || last0 < 0 || last0 < first1 {
		return 0
	}
	return last0 - first1 + 1
}
