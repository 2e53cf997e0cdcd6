package schedule

import (
	"strings"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
)

// validNet returns a small network and a structurally valid op list to
// corrupt from.
func validNet(t *testing.T) (*product.Network, []Op) {
	t.Helper()
	net, err := product.New(graph.Path(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Kind: OpBeginS2},
		{Kind: OpCompareExchange, Pairs: [][2]int{{0, 1}, {3, 4}}, Cost: 1, Dim: 1},
		{Kind: OpS2Marker},
		{Kind: OpEndS2},
		{Kind: OpRoutedExchange, Pairs: [][2]int{{2, 5}}, Cost: 3, Dim: 2},
		{Kind: OpIdle, Cost: 1},
		{Kind: OpSweepMarker},
	}
	return net, ops
}

func TestValidateAcceptsSoundPrograms(t *testing.T) {
	net, ops := validNet(t)
	prog, err := NewProgram(net, "test", "adhoc", ops)
	if err != nil {
		t.Fatalf("valid op list rejected: %v", err)
	}
	if got := prog.Clock().CompareOps; got != 3 {
		t.Fatalf("clock rebuilt wrong: CompareOps = %d, want 3", got)
	}
	if got := prog.Clock().Rounds; got != 5 {
		t.Fatalf("clock rebuilt wrong: Rounds = %d, want 5", got)
	}
	if got := prog.Clock().S2Rounds; got != 1 {
		t.Fatalf("clock rebuilt wrong: S2Rounds = %d, want 1", got)
	}
}

// TestValidateRejectsCorruptPrograms covers every violation class the
// defensive gate must catch before certification trusts the IR.
func TestValidateRejectsCorruptPrograms(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func([]Op) []Op
		want    string
	}{
		{"node out of range high", func(ops []Op) []Op {
			ops[1].Pairs[0][1] = 9
			return ops
		}, "out of range"},
		{"node out of range negative", func(ops []Op) []Op {
			ops[4].Pairs[0][0] = -1
			return ops
		}, "out of range"},
		{"degenerate pair", func(ops []Op) []Op {
			ops[1].Pairs[1] = [2]int{4, 4}
			return ops
		}, "degenerate"},
		{"node reused across pairs", func(ops []Op) []Op {
			ops[1].Pairs[1] = [2]int{1, 4}
			return ops
		}, "appears twice"},
		{"empty exchange", func(ops []Op) []Op {
			ops[1].Pairs = nil
			return ops
		}, "empty pair list"},
		{"non-positive cost", func(ops []Op) []Op {
			ops[1].Cost = 0
			return ops
		}, "cost 0"},
		{"unbalanced begin-s2", func(ops []Op) []Op {
			return append(ops, Op{Kind: OpBeginS2})
		}, "unclosed"},
		{"end-s2 without begin", func(ops []Op) []Op {
			return append([]Op{{Kind: OpEndS2}}, ops...)
		}, "without matching"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, ops := validNet(t)
			_, err := NewProgram(net, "test", "adhoc", tc.corrupt(ops))
			if err == nil {
				t.Fatalf("corrupt program accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCompiledProgramsValidate asserts the invariant Compile now
// enforces: every program that comes out of the real compiler passes
// Validate (regression guard for the build-time hook).
func TestCompiledProgramsValidate(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(4), graph.CompleteBinaryTree(3), graph.Petersen()} {
		net, err := product.New(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: compiled program failed validation: %v", net.Name(), err)
		}
	}
}
