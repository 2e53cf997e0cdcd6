package emit_test

import (
	"testing"

	"productsort/internal/cert"
	"productsort/internal/emit"
)

// TestHostSnakeIdentity pins the property the whole subsystem leans on:
// on the 1-D path host, node id and snake position coincide, so line
// coordinates are simultaneously node coordinates and snake coordinates.
func TestHostSnakeIdentity(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17, 64} {
		net := emit.Host(n)
		if net.Nodes() != n {
			t.Fatalf("Host(%d): %d nodes", n, net.Nodes())
		}
		for p := 0; p < n; p++ {
			if net.NodeAtSnake(p) != p {
				t.Fatalf("Host(%d): snake pos %d maps to node %d", n, p, net.NodeAtSnake(p))
			}
			if net.SnakePos(p) != p {
				t.Fatalf("Host(%d): node %d maps to snake pos %d", n, p, net.SnakePos(p))
			}
		}
	}
}

// TestSorterSortsExhaustively proves the Batcher lowering of the
// n-sorter primitive for every width the emitters use, including the
// non-power-of-two widths the virtual-padding path handles.
func TestSorterSortsExhaustively(t *testing.T) {
	for w := 2; w <= 10; w++ {
		b := emit.NewBuilder(w)
		depth := b.Sorter(0, w, 1, 0)
		prog, err := b.Program("sorter-test", "emit|test|sorter")
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if prog.Rounds() != depth {
			t.Fatalf("width %d: program rounds %d != depth %d", w, prog.Rounds(), depth)
		}
		res, err := cert.Exhaustive(prog, cert.Options{})
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if !res.Certified {
			t.Fatalf("width %d sorter not certified; witness %v", w, res.Witness)
		}
	}
}

// TestSorterStrideAndOffset checks that a strided, offset sorter sorts
// its own lines and leaves every other line untouched.
func TestSorterStrideAndOffset(t *testing.T) {
	const lines, lo, w, stride = 16, 1, 4, 3 // lines 1, 4, 7, 10
	b := emit.NewBuilder(lines)
	b.Sorter(lo, w, stride, 0)
	prog, err := b.Program("sorter-test", "emit|test|strided")
	if err != nil {
		t.Fatal(err)
	}
	touched := map[int]bool{}
	for _, op := range prog.Ops() {
		for _, pr := range op.Pairs {
			touched[pr[0]] = true
			touched[pr[1]] = true
		}
	}
	for i := 0; i < w; i++ {
		if !touched[lo+i*stride] {
			t.Fatalf("line %d in the sorter window never touched", lo+i*stride)
		}
	}
	for line := range touched {
		if line < lo || line >= lo+w*stride || (line-lo)%stride != 0 {
			t.Fatalf("line %d outside the strided window was touched", line)
		}
	}
}

// TestBuilderColumnsAreRounds pins the cost model: one column = one
// round, empty columns vanish, and the lowered comparator stream is the
// column stream verbatim (identity snake on the path host).
func TestBuilderColumnsAreRounds(t *testing.T) {
	b := emit.NewBuilder(4)
	b.Add(0, 0, 1)
	b.Add(0, 2, 3)
	b.Add(2, 1, 2) // column 1 left empty on purpose
	prog, err := b.Program("cols-test", "emit|test|cols")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Rounds() != 2 || prog.Depth() != 2 {
		t.Fatalf("rounds %d depth %d, want 2/2", prog.Rounds(), prog.Depth())
	}
	if prog.Size() != 3 {
		t.Fatalf("size %d, want 3 comparators", prog.Size())
	}
	low := prog.LoweredComparators()
	want := [][2]int32{{0, 1}, {2, 3}, {1, 2}}
	if len(low) != len(want) {
		t.Fatalf("lowered %d comparators, want %d", len(low), len(want))
	}
	for i, c := range low {
		if c.Lo != want[i][0] || c.Hi != want[i][1] {
			t.Fatalf("lowered[%d] = (%d,%d), want (%d,%d)", i, c.Lo, c.Hi, want[i][0], want[i][1])
		}
	}
}

// TestProgramRejectsOverlappingColumn ensures emitted programs inherit
// the IR's structural gate: two comparators sharing a line in one
// column must be rejected at Program time.
func TestProgramRejectsOverlappingColumn(t *testing.T) {
	b := emit.NewBuilder(4)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2)
	if _, err := b.Program("bad", "emit|test|overlap"); err == nil {
		t.Fatal("overlapping column accepted")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add did not panic")
		}
	}()
	emit.NewBuilder(4).Add(0, 0, 4)
}

// TestBuilderAccessorsAndPowerOfTwo covers the small query surface the
// emitters and planner candidates lean on.
func TestBuilderAccessorsAndPowerOfTwo(t *testing.T) {
	b := emit.NewBuilder(6)
	if b.Lines() != 6 || b.Columns() != 0 {
		t.Fatalf("fresh builder: lines %d columns %d", b.Lines(), b.Columns())
	}
	b.Add(2, 0, 1) // targeting column 2 grows the column list to 3
	if b.Columns() != 3 {
		t.Fatalf("Columns() = %d after Add to column 2, want 3", b.Columns())
	}
	for n, want := range map[int]bool{1: true, 2: true, 64: true, 0: false, -4: false, 6: false, 63: false} {
		if got := emit.PowerOfTwo(n); got != want {
			t.Errorf("PowerOfTwo(%d) = %v, want %v", n, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewBuilder(0) did not panic")
		}
	}()
	emit.NewBuilder(0)
}
