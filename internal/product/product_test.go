package product

import (
	"testing"
	"testing/quick"

	"productsort/internal/graph"
	"productsort/internal/gray"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(graph.Path(3), 0); err == nil {
		t.Error("r=0 accepted")
	}
	p, err := New(graph.Path(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 27 || p.N() != 3 || p.R() != 3 {
		t.Errorf("basic sizes wrong: %d %d %d", p.Nodes(), p.N(), p.R())
	}
	if p.Name() != "path3^3" {
		t.Errorf("name=%q", p.Name())
	}
}

func TestLabelIDRoundTrip(t *testing.T) {
	p := MustNew(graph.Cycle(4), 3)
	buf := make([]int, 3)
	for id := 0; id < p.Nodes(); id++ {
		if got := p.ID(p.Label(id, buf)); got != id {
			t.Fatalf("ID(Label(%d))=%d", id, got)
		}
	}
}

func TestDigitAndSetDigit(t *testing.T) {
	p := MustNew(graph.Path(5), 3)
	id := p.ID([]int{3, 1, 4}) // position1=3, position2=1, position3=4
	if p.Digit(id, 1) != 3 || p.Digit(id, 2) != 1 || p.Digit(id, 3) != 4 {
		t.Fatalf("digits wrong: %d %d %d", p.Digit(id, 1), p.Digit(id, 2), p.Digit(id, 3))
	}
	id2 := p.SetDigit(id, 2, 0)
	if p.Digit(id2, 2) != 0 || p.Digit(id2, 1) != 3 || p.Digit(id2, 3) != 4 {
		t.Fatal("SetDigit broke other digits")
	}
	if p.SetDigit(id, 2, 1) != id {
		t.Fatal("SetDigit to same value changed id")
	}
	if p.Stride(1) != 1 || p.Stride(2) != 5 || p.Stride(3) != 25 {
		t.Fatal("strides wrong")
	}
}

// TestHypercubeAdjacency: product of K2 is the hypercube; adjacency is
// differ-in-one-bit.
func TestHypercubeAdjacency(t *testing.T) {
	p := MustNew(graph.K2(), 4)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			x := a ^ b
			want := x != 0 && x&(x-1) == 0
			if got := p.Adjacent(a, b); got != want {
				t.Errorf("Adjacent(%04b,%04b)=%v want %v", a, b, got, want)
			}
		}
	}
}

// TestGridAdjacency: product of paths is the grid; adjacency is
// differ-by-one in a single coordinate.
func TestGridAdjacency(t *testing.T) {
	p := MustNew(graph.Path(4), 2)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			ax, ay := a%4, a/4
			bx, by := b%4, b/4
			dx, dy := ax-bx, ay-by
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			want := dx+dy == 1
			if got := p.Adjacent(a, b); got != want {
				t.Errorf("Adjacent(%d,%d)=%v want %v", a, b, got, want)
			}
		}
	}
}

func TestNeighborsMatchAdjacent(t *testing.T) {
	nets := []*Network{
		MustNew(graph.Path(3), 3),
		MustNew(graph.Petersen(), 2),
		MustNew(graph.CompleteBinaryTree(3), 2),
		MustNew(graph.K2(), 5),
	}
	for _, p := range nets {
		for id := 0; id < p.Nodes(); id++ {
			nbs := p.Neighbors(id)
			seen := make(map[int]bool, len(nbs))
			for _, nb := range nbs {
				if !p.Adjacent(id, nb) {
					t.Fatalf("%s: Neighbors(%d) contains non-adjacent %d", p.Name(), id, nb)
				}
				if seen[nb] {
					t.Fatalf("%s: duplicate neighbor %d of %d", p.Name(), nb, id)
				}
				seen[nb] = true
			}
			if len(nbs) != p.Degree(id) {
				t.Fatalf("%s: Degree(%d)=%d but %d neighbors", p.Name(), id, p.Degree(id), len(nbs))
			}
			// Exhaustive cross-check on the smaller networks.
			if p.Nodes() <= 128 {
				count := 0
				for b := 0; b < p.Nodes(); b++ {
					if p.Adjacent(id, b) {
						count++
						if !seen[b] {
							t.Fatalf("%s: Adjacent(%d,%d) but missing from Neighbors", p.Name(), id, b)
						}
					}
				}
				if count != len(nbs) {
					t.Fatalf("%s: node %d has %d adjacents, %d neighbors", p.Name(), id, count, len(nbs))
				}
			}
		}
	}
}

func TestEdgeCount(t *testing.T) {
	// 4-cube has 4*2^3 = 32 edges.
	if got := MustNew(graph.K2(), 4).EdgeCount(); got != 32 {
		t.Errorf("hypercube4 edges=%d want 32", got)
	}
	// 3x3 grid has 12 edges: 2*3 per direction * 2.
	if got := MustNew(graph.Path(3), 2).EdgeCount(); got != 12 {
		t.Errorf("grid3x3 edges=%d want 12", got)
	}
}

func TestDiameterAndDist(t *testing.T) {
	p := MustNew(graph.Path(4), 3)
	if p.Diameter() != 9 {
		t.Errorf("diameter=%d want 9", p.Diameter())
	}
	a := p.ID([]int{0, 0, 0})
	b := p.ID([]int{3, 3, 3})
	if p.Dist(a, b) != 9 {
		t.Errorf("corner distance=%d want 9", p.Dist(a, b))
	}
	if p.Dist(a, a) != 0 {
		t.Error("self distance nonzero")
	}
}

// TestSnakeNeighbors: when the factor is Hamiltonian-labeled, nodes at
// consecutive snake positions are adjacent in the product network. This
// is the property that makes snake-order compare-exchange single-hop.
func TestSnakeNeighbors(t *testing.T) {
	nets := []*Network{
		MustNew(graph.Path(3), 3),
		MustNew(graph.Cycle(5), 2),
		MustNew(graph.K2(), 6),
		MustNew(graph.Petersen(), 2),
	}
	for _, p := range nets {
		if !p.Factor().HamiltonianLabeled() {
			t.Fatalf("%s: factor unexpectedly not Hamiltonian-labeled", p.Name())
		}
		for pos := 0; pos+1 < p.Nodes(); pos++ {
			a, b := p.NodeAtSnake(pos), p.NodeAtSnake(pos+1)
			if !p.Adjacent(a, b) {
				t.Fatalf("%s: snake positions %d,%d are nodes %d,%d: not adjacent",
					p.Name(), pos, pos+1, a, b)
			}
		}
	}
}

func TestSnakePosRoundTrip(t *testing.T) {
	p := MustNew(graph.Path(3), 4)
	for id := 0; id < p.Nodes(); id++ {
		if got := p.NodeAtSnake(p.SnakePos(id)); got != id {
			t.Fatalf("NodeAtSnake(SnakePos(%d))=%d", id, got)
		}
	}
}

// TestSnakeAddressingZeroAlloc pins that per-key snake addressing keeps
// its label buffer on the stack, on a homogeneous network and a
// heterogeneous one.
func TestSnakeAddressingZeroAlloc(t *testing.T) {
	for _, p := range []*Network{
		MustNew(graph.K2(), 10),
		MustNewHetero([]*graph.Graph{graph.Path(4), graph.Cycle(3), graph.K2()}),
	} {
		allocs := testing.AllocsPerRun(20, func() {
			for pos := 0; pos < p.Nodes(); pos++ {
				if p.SnakePos(p.NodeAtSnake(pos)) != pos {
					t.Fatalf("%s: snake position %d does not round-trip", p.Name(), pos)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: snake addressing allocates %.1f per pass of %d keys, want 0", p.Name(), allocs, p.Nodes())
		}
	}
}

func TestBlockAddressing(t *testing.T) {
	p := MustNew(graph.Path(3), 4)
	dims := []int{1, 3}
	bases := p.BlockBases(dims)
	if len(bases) != 9 { // N^(r-2)
		t.Fatalf("got %d bases want 9", len(bases))
	}
	size := p.BlockSize(dims)
	if size != 9 {
		t.Fatalf("block size %d want 9", size)
	}
	seen := make(map[int]bool, p.Nodes())
	for _, base := range bases {
		if p.Digit(base, 1) != 0 || p.Digit(base, 3) != 0 {
			t.Fatalf("base %d has nonzero digits at dims", base)
		}
		for pos := 0; pos < size; pos++ {
			id := p.NodeInBlock(base, dims, pos)
			if seen[id] {
				t.Fatalf("node %d in two blocks", id)
			}
			seen[id] = true
			if got := p.BlockSnakePos(id, dims); got != pos {
				t.Fatalf("BlockSnakePos(NodeInBlock(%d,%d))=%d", base, pos, got)
			}
			if p.BlockBase(id, dims) != base {
				t.Fatalf("BlockBase(%d)=%d want %d", id, p.BlockBase(id, dims), base)
			}
			// Digits outside dims must match the base.
			if p.Digit(id, 2) != p.Digit(base, 2) || p.Digit(id, 4) != p.Digit(base, 4) {
				t.Fatal("block member strayed outside block")
			}
		}
	}
	if len(seen) != p.Nodes() {
		t.Fatalf("blocks cover %d nodes want %d", len(seen), p.Nodes())
	}
}

// TestBlockOffsets: base+off[pos] is NodeInBlock(base, dims, pos) for
// every base, position and dimension order, heterogeneous radices
// included.
func TestBlockOffsets(t *testing.T) {
	p := MustNewHetero([]*graph.Graph{graph.Path(3), graph.Cycle(4), graph.K2(), graph.Path(5)})
	for _, dims := range [][]int{{1}, {2, 1}, {1, 3}, {4, 2}, {3}, {1, 2, 3}, {4, 3, 2, 1}} {
		off := p.BlockOffsets(dims)
		if len(off) != p.BlockSize(dims) {
			t.Fatalf("dims %v: %d offsets for block size %d", dims, len(off), p.BlockSize(dims))
		}
		for _, base := range p.BlockBases(dims) {
			for pos, o := range off {
				if got, want := base+o, p.NodeInBlock(base, dims, pos); got != want {
					t.Fatalf("dims %v base %d pos %d: base+off = %d, NodeInBlock = %d", dims, base, pos, got, want)
				}
			}
		}
	}
}

// TestDifferingDim checks the label table's stride-bracket test against
// a digit-by-digit scan on every pair of nodes, homogeneous and
// heterogeneous.
func TestDifferingDim(t *testing.T) {
	for _, p := range []*Network{
		MustNew(graph.K2(), 5),
		MustNew(graph.Path(3), 3),
		MustNewHetero([]*graph.Graph{graph.Path(4), graph.Cycle(3), graph.K2()}),
		MustNewHetero([]*graph.Graph{graph.K2(), graph.Path(5), graph.Path(3)}),
	} {
		sym := p.Symbols()
		for a := 0; a < p.Nodes(); a++ {
			for b := 0; b < p.Nodes(); b++ {
				want, differing := 0, 0
				for d := 1; d <= p.R(); d++ {
					if p.Digit(a, d) != p.Digit(b, d) {
						want = d
						differing++
					}
				}
				if differing != 1 {
					want = 0
				}
				dim, da, db := sym.DifferingDim(a, b)
				if dim != want {
					t.Fatalf("%s: DifferingDim(%d, %d) = %d, want %d", p.Name(), a, b, dim, want)
				}
				if dim != 0 && (da != p.Digit(a, dim) || db != p.Digit(b, dim)) {
					t.Fatalf("%s: DifferingDim(%d, %d) digits (%d, %d), want (%d, %d)",
						p.Name(), a, b, da, db, p.Digit(a, dim), p.Digit(b, dim))
				}
			}
		}
	}
}

// TestBlockSnakeIsSubsetSnake verifies that walking a block in its local
// snake order visits product nodes such that consecutive ones differ by
// one symbol step in exactly one of the block's dimensions.
func TestBlockSnakeIsSubsetSnake(t *testing.T) {
	p := MustNew(graph.Path(4), 3)
	dims := []int{2, 3}
	base := p.ID([]int{1, 0, 0}) // fixed digit 1 at dimension 1
	prev := -1
	for pos := 0; pos < p.BlockSize(dims); pos++ {
		id := p.NodeInBlock(base, dims, pos)
		if p.Digit(id, 1) != 1 {
			t.Fatalf("block member %d lost its fixed dimension-1 digit", id)
		}
		if prev >= 0 {
			diffs := 0
			for dim := 1; dim <= 3; dim++ {
				a, b := p.Digit(prev, dim), p.Digit(id, dim)
				if a != b {
					diffs++
					if d := a - b; d != 1 && d != -1 {
						t.Fatalf("non-unit step between %d and %d at dim %d", prev, id, dim)
					}
				}
			}
			if diffs != 1 {
				t.Fatalf("%d differing dims between consecutive block-snake nodes", diffs)
			}
		}
		prev = id
	}
}

func TestBlockWeight(t *testing.T) {
	p := MustNew(graph.Path(5), 3)
	id := p.ID([]int{2, 3, 4})
	if w := p.BlockWeight(id, []int{1, 3}); w != 6 {
		t.Errorf("BlockWeight=%d want 6", w)
	}
	if w := p.BlockWeight(id, []int{2}); w != 3 {
		t.Errorf("BlockWeight=%d want 3", w)
	}
}

// Property: SetDigit then Digit round-trips, other digits unchanged.
func TestQuickSetDigit(t *testing.T) {
	p := MustNew(graph.Path(5), 4)
	f := func(idRaw uint16, dimRaw, vRaw uint8) bool {
		id := int(idRaw) % p.Nodes()
		dim := 1 + int(dimRaw)%4
		v := int(vRaw) % 5
		id2 := p.SetDigit(id, dim, v)
		if p.Digit(id2, dim) != v {
			return false
		}
		for d := 1; d <= 4; d++ {
			if d != dim && p.Digit(id2, d) != p.Digit(id, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: product distance equals sum of factor distances and is
// realized by edges (sanity-check against a BFS on the product graph).
func TestDistMatchesBFS(t *testing.T) {
	p := MustNew(graph.Petersen(), 2)
	// BFS from node 0 on the product graph.
	dist := make([]int, p.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range p.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	for id := 0; id < p.Nodes(); id++ {
		if dist[id] != p.Dist(0, id) {
			t.Fatalf("Dist(0,%d)=%d but BFS says %d", id, p.Dist(0, id), dist[id])
		}
	}
}

func TestSnakePosMatchesGray(t *testing.T) {
	p := MustNew(graph.Path(3), 3)
	buf := make([]int, 3)
	for id := 0; id < p.Nodes(); id++ {
		want := gray.SnakeRank(p.Label(id, buf), 3)
		if got := p.SnakePos(id); got != want {
			t.Fatalf("SnakePos(%d)=%d want %d", id, got, want)
		}
	}
}

func BenchmarkNeighbors(b *testing.B) {
	p := MustNew(graph.Petersen(), 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Neighbors(i % p.Nodes())
	}
}

func BenchmarkAdjacent(b *testing.B) {
	p := MustNew(graph.Path(8), 4)
	for i := 0; i < b.N; i++ {
		p.Adjacent(i%p.Nodes(), (i*7)%p.Nodes())
	}
}

func TestSnakeCutWidth(t *testing.T) {
	// N×N grid: the snake bisection cuts one column of N horizontal
	// edges... actually the half-way snake cut severs the grid between
	// row N/2-1 and row N/2: exactly N vertical edges.
	for _, n := range []int{4, 6} {
		p := MustNew(graph.Path(n), 2)
		if got := p.SnakeCutWidth(); got != n {
			t.Errorf("grid %dx%d snake cut = %d want %d", n, n, got, n)
		}
	}
	// Hypercube r: cutting the Gray order in half severs exactly the
	// subcube boundary plus nothing else? The reflected Gray code's
	// first half is the subcube with top bit 0, so the cut is the
	// perfect matching of 2^(r-1) dimension-r edges.
	for _, r := range []int{3, 4, 5} {
		p := MustNew(graph.K2(), r)
		if got := p.SnakeCutWidth(); got != 1<<(r-1) {
			t.Errorf("hypercube %d snake cut = %d want %d", r, got, 1<<(r-1))
		}
	}
	// Torus side n: the snake cut severs two column cross-sections plus
	// wraparounds; just sanity-bound it.
	p := MustNew(graph.Cycle(4), 2)
	if got := p.SnakeCutWidth(); got < 4 || got > 12 {
		t.Errorf("torus4 snake cut = %d out of sane range", got)
	}
}
