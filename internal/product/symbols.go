package product

// Symbols is a network's label table: the symbol of every node at every
// dimension, and the stride bracket of every id difference. It answers
// DifferingDim with table reads instead of divisions, for callers that
// check many pairs (the phase checker of package simnet builds one per
// network it prices). Building it costs O(r·Nodes()) time and memory,
// so a Network never builds one itself. It is immutable once built.
type Symbols struct {
	nodes   int
	stride  []int
	bracket []int32 // bracket[x]: the largest dimension whose stride is ≤ x
	sym     []int32 // sym[(d-1)·nodes+id]: the symbol of id at dimension d
}

// Symbols builds p's label table.
func (p *Network) Symbols() *Symbols {
	n := p.total
	t := &Symbols{nodes: n, stride: p.stride, bracket: make([]int32, n), sym: make([]int32, p.r*n)}
	for d := 1; d <= p.r; d++ {
		s, end := p.stride[d-1], n
		if d < p.r {
			end = p.stride[d]
		}
		for x := s; x < end; x++ {
			t.bracket[x] = int32(d)
		}
		// Symbol v of dimension d covers runs of s ids, cycling v.
		row, radix := t.sym[(d-1)*n:d*n], int32(p.radix[d-1])
		for lo, v := 0, int32(0); lo < n; lo, v = lo+s, (v+1)%radix {
			for id := lo; id < lo+s; id++ {
				row[id] = v
			}
		}
	}
	return t
}

// DifferingDim returns the one dimension in which the labels of node
// ids a and b differ, with their symbols there; dim is 0 when a == b or
// when the labels differ in more than one dimension.
//
// No dimension but one is read. If only the symbol of dimension d
// differs, b−a = (db−da)·Stride(d) with 1 ≤ |db−da| < Radix(d), so
// Stride(d) ≤ |b−a| < Stride(d+1): the stride bracket of |b−a| names
// the only candidate. The one check b−a == (db−da)·Stride(d) then
// proves every other symbol agrees, because b is a with symbol d
// replaced by db, and a node id is a unique mixed-radix number.
func (t *Symbols) DifferingDim(a, b int) (dim, da, db int) {
	x := max(b-a, a-b)
	if x == 0 {
		return 0, 0, 0
	}
	d := int(t.bracket[x])
	row := t.sym[(d-1)*t.nodes : d*t.nodes]
	da, db = int(row[a]), int(row[b])
	if b-a != (db-da)*t.stride[d-1] {
		return 0, 0, 0
	}
	return d, da, db
}
