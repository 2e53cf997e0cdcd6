// Package product implements r-dimensional product networks
// (Definition 1 of the paper) over factor graphs.
//
// A node is identified by an integer id in [0, ∏N_i): the lexicographic
// rank of its label with the dimension-1 symbol least significant.
// Labels follow the paper's convention: positions are indexed 1…r with
// position 1 rightmost; dimensions are 1-based throughout this package.
//
// Two nodes are adjacent iff their labels differ in exactly one symbol
// position and the differing symbols are adjacent in that dimension's
// factor graph. The paper studies homogeneous products (every dimension
// the same factor); this implementation also supports heterogeneous
// products (e.g. rectangular grids), which the sorting algorithm
// handles under a radix-ordering condition documented in package core.
package product

import (
	"encoding/binary"
	"fmt"
	"sync"

	"productsort/internal/graph"
	"productsort/internal/gray"
)

// Network is an r-dimensional product of factor graphs.
type Network struct {
	factors []*graph.Graph // factors[d-1] is the dimension-d factor
	radix   []int          // radix[d-1] = factors[d-1].N()
	r       int
	total   int
	stride  []int // stride[d-1] = ∏_{i<d} radix: weight of dimension d
	homog   bool

	sigOnce sync.Once
	sig     string // structural signature, built on first use
}

// New builds the homogeneous product PG_r from factor g. r must be at
// least 1 and N^r must fit in an int.
func New(g *graph.Graph, r int) (*Network, error) {
	if r < 1 {
		return nil, fmt.Errorf("product: dimension %d < 1", r)
	}
	factors := make([]*graph.Graph, r)
	for i := range factors {
		factors[i] = g
	}
	return NewHetero(factors)
}

// NewHetero builds the product of the given factor graphs, one per
// dimension: factors[0] is dimension 1 (least significant).
func NewHetero(factors []*graph.Graph) (*Network, error) {
	r := len(factors)
	if r < 1 {
		return nil, fmt.Errorf("product: need at least one factor")
	}
	radix := make([]int, r)
	stride := make([]int, r)
	total := 1
	homog := true
	for i, g := range factors {
		if g == nil {
			return nil, fmt.Errorf("product: nil factor at dimension %d", i+1)
		}
		radix[i] = g.N()
		stride[i] = total
		if total > int(^uint(0)>>1)/g.N() {
			return nil, fmt.Errorf("product: node count overflows int")
		}
		total *= g.N()
		if g != factors[0] {
			homog = false
		}
	}
	return &Network{factors: factors, radix: radix, r: r, total: total, stride: stride, homog: homog}, nil
}

// MustNew is New for statically-correct parameters; it panics on error.
func MustNew(g *graph.Graph, r int) *Network {
	p, err := New(g, r)
	if err != nil {
		panic(err)
	}
	return p
}

// MustNewHetero is NewHetero, panicking on error.
func MustNewHetero(factors []*graph.Graph) *Network {
	p, err := NewHetero(factors)
	if err != nil {
		panic(err)
	}
	return p
}

// Homogeneous reports whether every dimension shares one factor graph.
func (p *Network) Homogeneous() bool { return p.homog }

// Factor returns the dimension-1 factor graph; for homogeneous networks
// this is the factor graph. Use FactorAt for heterogeneous networks.
func (p *Network) Factor() *graph.Graph { return p.factors[0] }

// FactorAt returns the factor graph of 1-based dimension dim.
func (p *Network) FactorAt(dim int) *graph.Graph { return p.factors[dim-1] }

// R returns the number of dimensions.
func (p *Network) R() int { return p.r }

// N returns the dimension-1 factor size; for homogeneous networks this
// is the paper's N. Use Radix for heterogeneous networks.
func (p *Network) N() int { return p.radix[0] }

// Radix returns the symbol count of 1-based dimension dim.
func (p *Network) Radix(dim int) int { return p.radix[dim-1] }

// Radices returns a copy of all per-dimension symbol counts
// (index 0 = dimension 1).
func (p *Network) Radices() []int { return append([]int(nil), p.radix...) }

// Nodes returns the total node count.
func (p *Network) Nodes() int { return p.total }

// Name describes the network, e.g. "petersen^3" or "path4*path3*path2".
func (p *Network) Name() string {
	if p.homog {
		return fmt.Sprintf("%s^%d", p.factors[0].Name(), p.r)
	}
	name := ""
	for d := p.r; d >= 1; d-- {
		if name != "" {
			name += "*"
		}
		name += p.factors[d-1].Name()
	}
	return name
}

// Signature returns the network's structural signature: per dimension,
// dimension 1 first, a '|' and the factor's node count and sorted edge
// list, varint-packed. The labeling is part of it, since it decides
// which compare-exchanges are single-hop. Structurally identical
// networks share a signature however their factor graphs were built.
// It is built once, on first use; the network is immutable.
func (p *Network) Signature() string {
	p.sigOnce.Do(func() {
		var buf []byte
		for _, g := range p.factors {
			buf = append(buf, '|')
			buf = binary.AppendUvarint(buf, uint64(g.N()))
			for _, e := range g.Edges() { // sorted, u < v
				buf = binary.AppendUvarint(buf, uint64(e[0]))
				buf = binary.AppendUvarint(buf, uint64(e[1]))
			}
		}
		p.sig = string(buf)
	})
	return p.sig
}

// Stride returns the weight of 1-based dimension dim in node ids.
func (p *Network) Stride(dim int) int { return p.stride[dim-1] }

// Label writes the r symbols of node id into buf (buf[0] = position 1)
// and returns buf. buf must have length r.
func (p *Network) Label(id int, buf []int) []int {
	if len(buf) != p.r {
		panic("product: label buffer has wrong length")
	}
	return gray.UnrankMixed(id, p.radix, buf)
}

// ID returns the node id of a label (inverse of Label).
func (p *Network) ID(label []int) int {
	if len(label) != p.r {
		panic("product: label has wrong length")
	}
	return gray.RankMixed(label, p.radix)
}

// Digit returns the symbol of node id at 1-based dimension dim.
func (p *Network) Digit(id, dim int) int {
	return (id / p.stride[dim-1]) % p.radix[dim-1]
}

// SetDigit returns the id of the node whose label equals that of id
// except that dimension dim carries symbol v.
func (p *Network) SetDigit(id, dim, v int) int {
	s := p.stride[dim-1]
	old := (id / s) % p.radix[dim-1]
	return id + (v-old)*s
}

// DifferingDim returns the one dimension in which the labels of a and b
// differ, with their symbols there; dim is 0 when a == b or when the
// labels differ in more than one dimension.
//
// No dimension but one is read. If only the symbol of dimension d
// differs, b−a = (db−da)·Stride(d) with 1 ≤ |db−da| < Radix(d), so
// Stride(d) ≤ |b−a| < Stride(d+1): the stride bracket of |b−a| names
// the only candidate. The one check b−a == (db−da)·Stride(d) then
// proves every other symbol agrees, because b is a with symbol d
// replaced by db, and a node id is a unique mixed-radix number.
func (p *Network) DifferingDim(a, b int) (dim, da, db int) {
	diff := b - a
	if diff < 0 {
		diff = -diff
	}
	if diff == 0 {
		return 0, 0, 0
	}
	d := p.r
	for p.stride[d-1] > diff {
		d--
	}
	s, n := p.stride[d-1], p.radix[d-1]
	da, db = a/s%n, b/s%n
	if b-a != (db-da)*s {
		return 0, 0, 0
	}
	return d, da, db
}

// Adjacent reports whether nodes a and b are adjacent (Definition 1).
func (p *Network) Adjacent(a, b int) bool {
	if a == b {
		return false
	}
	for dim := p.r; dim >= 1; dim-- {
		da, db := p.Digit(a, dim), p.Digit(b, dim)
		if da == db {
			continue
		}
		// All lower dimensions must agree.
		s := p.stride[dim-1]
		if a%s != b%s || a/(s*p.radix[dim-1]) != b/(s*p.radix[dim-1]) {
			return false
		}
		return p.factors[dim-1].HasEdge(da, db)
	}
	return false
}

// Neighbors returns the ids of all neighbors of id, grouped by dimension
// (dimension 1 first) and by factor adjacency order within a dimension.
func (p *Network) Neighbors(id int) []int {
	out := make([]int, 0, p.r*4)
	for dim := 1; dim <= p.r; dim++ {
		d := p.Digit(id, dim)
		for _, nb := range p.factors[dim-1].Neighbors(d) {
			out = append(out, p.SetDigit(id, dim, nb))
		}
	}
	return out
}

// Degree returns the number of neighbors of id.
func (p *Network) Degree(id int) int {
	deg := 0
	for dim := 1; dim <= p.r; dim++ {
		deg += p.factors[dim-1].Degree(p.Digit(id, dim))
	}
	return deg
}

// Diameter returns the sum of the factor diameters (exact for products:
// distances add across dimensions).
func (p *Network) Diameter() int {
	d := 0
	for _, g := range p.factors {
		d += g.Diameter()
	}
	return d
}

// EdgeCount returns the total number of edges.
func (p *Network) EdgeCount() int {
	edges := 0
	for dim := 1; dim <= p.r; dim++ {
		edges += len(p.factors[dim-1].Edges()) * (p.total / p.radix[dim-1])
	}
	return edges
}

// SnakePos returns the position of node id in the snake order (the
// mixed-radix Gray-code rank of its label).
func (p *Network) SnakePos(id int) int {
	var stack [16]int
	return gray.SnakeRankMixed(p.Label(id, p.labelBuf(stack[:])), p.radix)
}

// NodeAtSnake returns the id of the node at the given snake position.
func (p *Network) NodeAtSnake(pos int) int {
	var stack [16]int
	return p.ID(gray.SnakeUnrankMixed(pos, p.radix, p.labelBuf(stack[:])))
}

// labelBuf returns an r-digit label buffer: a prefix of stack, which
// keeps per-key snake addressing allocation-free, or a new slice when
// r exceeds it.
func (p *Network) labelBuf(stack []int) []int {
	if p.r > len(stack) {
		return make([]int, p.r)
	}
	return stack[:p.r]
}

// Dist returns the hop distance between nodes a and b: the sum over
// dimensions of factor distances between the differing symbols.
func (p *Network) Dist(a, b int) int {
	d := 0
	for dim := 1; dim <= p.r; dim++ {
		da, db := p.Digit(a, dim), p.Digit(b, dim)
		if da != db {
			d += p.factors[dim-1].Dist(da, db)
		}
	}
	return d
}

// --- Block (subgraph) addressing -------------------------------------
//
// The sorting algorithm repeatedly works on the subgraphs spanned by an
// ordered subset of dimensions ("dims"), with all other dimensions
// fixed. dims[0] plays the role of dimension 1 (least significant in the
// block's local snake order), dims[len-1] the most significant. A block
// is identified by its base node: the member whose digits at dims are
// all zero.

// blockRadix returns the radices of the block dimensions in role order.
func (p *Network) blockRadix(dims []int) []int {
	radix := make([]int, len(dims))
	for i, d := range dims {
		radix[i] = p.radix[d-1]
	}
	return radix
}

// BlockSize returns the number of nodes in a block spanned by dims.
func (p *Network) BlockSize(dims []int) int {
	size := 1
	for _, d := range dims {
		size *= p.radix[d-1]
	}
	return size
}

// BlockBase returns the base id of the block containing id with respect
// to dims: id with the digits at dims zeroed.
func (p *Network) BlockBase(id int, dims []int) int {
	for _, d := range dims {
		id = p.SetDigit(id, d, 0)
	}
	return id
}

// BlockBases returns the base id of every block with respect to dims, in
// increasing id order.
func (p *Network) BlockBases(dims []int) []int {
	inDims := make([]bool, p.r+1)
	for _, d := range dims {
		inDims[d] = true
	}
	var bases []int
	var rec func(dim, id int)
	rec = func(dim, id int) {
		if dim > p.r {
			bases = append(bases, id)
			return
		}
		if inDims[dim] {
			rec(dim+1, id)
			return
		}
		for v := 0; v < p.radix[dim-1]; v++ {
			rec(dim+1, id+v*p.stride[dim-1])
		}
	}
	rec(1, 0)
	return bases
}

// BlockSnakePos returns the snake position of id within its block: the
// mixed-radix Gray rank of its digits at dims, dims[0] least significant.
func (p *Network) BlockSnakePos(id int, dims []int) int {
	label := make([]int, len(dims))
	for i, d := range dims {
		label[i] = p.Digit(id, d)
	}
	return gray.SnakeRankMixed(label, p.blockRadix(dims))
}

// NodeInBlock returns the id of the node at the given block-local snake
// position within the block identified by base.
func (p *Network) NodeInBlock(base int, dims []int, pos int) int {
	label := make([]int, len(dims))
	gray.SnakeUnrankMixed(pos, p.blockRadix(dims), label)
	id := base
	for i, d := range dims {
		id = p.SetDigit(id, d, label[i])
	}
	return id
}

// BlockOffsets returns the id offset of every block-local snake
// position: base+off[pos] is NodeInBlock(base, dims, pos) for every base
// BlockBases returns, since a base's digits at dims are all zero. Pair
// generators take one table per call instead of unranking per pair.
func (p *Network) BlockOffsets(dims []int) []int {
	radix := p.blockRadix(dims)
	label := make([]int, len(dims))
	off := make([]int, p.BlockSize(dims))
	for pos := range off {
		gray.SnakeUnrankMixed(pos, radix, label)
		for i, d := range dims {
			off[pos] += label[i] * p.stride[d-1]
		}
	}
	return off
}

// BlockWeight returns the Hamming weight of id's digits at dims; its
// parity decides snake direction and transposition phase membership in
// Step 4 of the merge.
func (p *Network) BlockWeight(id int, dims []int) int {
	w := 0
	for _, d := range dims {
		w += p.Digit(id, d)
	}
	return w
}

// SnakeCutWidth returns the number of edges crossing the bisection that
// splits the snake order in half — an upper bound on the network's
// bisection width, the quantity Section 5.2 of the paper uses for lower
// bounds. Counts each crossing edge once; intended for networks small
// enough to enumerate.
func (p *Network) SnakeCutWidth() int {
	half := p.total / 2
	firstHalf := make([]bool, p.total)
	for pos := 0; pos < half; pos++ {
		firstHalf[p.NodeAtSnake(pos)] = true
	}
	cut := 0
	for id := 0; id < p.total; id++ {
		if !firstHalf[id] {
			continue
		}
		for _, nb := range p.Neighbors(id) {
			if !firstHalf[nb] {
				cut++
			}
		}
	}
	return cut
}
