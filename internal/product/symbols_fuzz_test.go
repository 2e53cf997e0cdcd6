package product

import (
	"testing"

	"productsort/internal/graph"
)

// FuzzSymbols holds the label table's DifferingDim, and Network.Digit,
// to the division reference, (id / Stride(d)) % Radix(d) digit by
// digit, on random mixed-radix networks: radices 1 to
// 8 in up to six dimensions, powers of two and not, heterogeneous, with
// radix-1 dimensions (whose stride repeats the one below). Each input
// fixes one node a and checks it against every node b, so a == b, pairs
// one symbol apart, pairs that carry into a higher symbol and pairs that
// differ in two or more dimensions are all covered.
func FuzzSymbols(f *testing.F) {
	f.Add([]byte{2, 2, 2, 2}, uint16(5))    // a hypercube
	f.Add([]byte{3, 5, 4}, uint16(17))      // heterogeneous, not powers of two
	f.Add([]byte{7, 6, 5, 3, 2}, uint16(0)) // node 0
	f.Add([]byte{1, 3, 1, 2}, uint16(4))    // radix-1 dimensions
	f.Add([]byte{4, 4, 4, 4, 4, 4}, uint16(4095))
	f.Fuzz(func(t *testing.T, radices []byte, x uint16) {
		var factors []*graph.Graph
		nodes := 1
		for _, b := range radices {
			n := 1 + int(b%8)
			if len(factors) == 6 || nodes*n > 4096 {
				break
			}
			factors = append(factors, graph.Path(n))
			nodes *= n
		}
		if len(factors) == 0 {
			return
		}
		p := MustNewHetero(factors)
		sym := p.Symbols()
		digit := func(id, d int) int { return (id / p.Stride(d)) % p.Radix(d) }
		a := int(x) % p.Nodes()
		for b := 0; b < p.Nodes(); b++ {
			want, differing := 0, 0
			for d := 1; d <= p.R(); d++ {
				if got := p.Digit(b, d); got != digit(b, d) {
					t.Fatalf("%v: Digit(%d, %d) = %d, want %d", p.Radices(), b, d, got, digit(b, d))
				}
				if digit(a, d) != digit(b, d) {
					want = d
					differing++
				}
			}
			if differing != 1 {
				want = 0
			}
			dim, da, db := sym.DifferingDim(a, b)
			if dim != want {
				t.Fatalf("%v: DifferingDim(%d, %d) = %d, want %d", p.Radices(), a, b, dim, want)
			}
			if dim != 0 && (da != digit(a, dim) || db != digit(b, dim)) {
				t.Fatalf("%v: DifferingDim(%d, %d) symbols (%d, %d), want (%d, %d)",
					p.Radices(), a, b, da, db, digit(a, dim), digit(b, dim))
			}
		}
	})
}
