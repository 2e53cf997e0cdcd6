package cert

import (
	"testing"

	"productsort/internal/graph"
)

// TestMutationHarness is the certifier's own verification: generate
// structural corruptions of known-good programs, classify each with the
// independent oracle (exhaustive naive replay — ground truth by the 0-1
// principle), and require the certifier to
//
//   - reject 100% of non-equivalent mutants, each with a minimized,
//     oracle-confirmed witness, and
//   - certify 100% of equivalent mutants (no false alarms).
//
// The acceptance bar: at least 40 non-equivalent mutants, drawn from at
// least 4 distinct mutation operators.
func TestMutationHarness(t *testing.T) {
	bases := []struct {
		name string
		g    *graph.Graph
		r    int
	}{
		{"hypercube^3", graph.K2(), 3},
		{"grid3^2", graph.Path(3), 2},
		{"torus3^2", graph.Cycle(3), 2},
	}
	const perOp = 16
	nonEquiv := 0
	nonEquivByOp := map[string]int{}
	total := 0
	for _, b := range bases {
		prog := compileNet(t, b.g, b.r, "auto")
		for _, m := range Mutants(prog, perOp, 1) {
			total++
			equivalent := oracleSortsAll(t, m.Prog)
			res, err := Run(m.Prog, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", b.name, m.Name, err)
			}
			if equivalent {
				if !res.Certified {
					t.Errorf("%s/%s: equivalent mutant rejected (witness %v)", b.name, m.Name, res.Witness)
				}
				continue
			}
			nonEquiv++
			nonEquivByOp[m.Operator]++
			if res.Certified {
				t.Errorf("%s/%s: non-equivalent mutant certified", b.name, m.Name)
				continue
			}
			w := res.Witness
			if w == nil {
				t.Errorf("%s/%s: rejected without witness", b.name, m.Name)
				continue
			}
			if m.Operator == "broken-prune" && w.LiveDrop == nil {
				t.Errorf("%s/%s: witness %v does not name the dropped live comparator", b.name, m.Name, w)
			}
			if oracleSorts(m.Prog, w.Vector) {
				t.Errorf("%s/%s: witness %v is not a counterexample", b.name, m.Name, w)
			}
			if !w.Minimal {
				t.Errorf("%s/%s: witness %v not 1-minimal", b.name, m.Name, w)
			}
			// Oracle-check 1-minimality too: clearing any single 1 must
			// yield a vector the mutant sorts.
			for p := range w.Vector {
				if w.Vector[p] == 0 {
					continue
				}
				w.Vector[p] = 0
				if !oracleSorts(m.Prog, w.Vector) {
					t.Errorf("%s/%s: witness %v not minimal per oracle (bit %d removable check failed)",
						b.name, m.Name, w, p)
				}
				w.Vector[p] = 1
			}
		}
	}
	if nonEquiv < 40 {
		t.Errorf("only %d non-equivalent mutants (of %d total); want >= 40 — raise perOp", nonEquiv, total)
	}
	opsWithKills := 0
	for _, n := range nonEquivByOp {
		if n > 0 {
			opsWithKills++
		}
	}
	if opsWithKills < 4 {
		t.Errorf("non-equivalent mutants from only %d operators (%v); want >= 4", opsWithKills, nonEquivByOp)
	}
	t.Logf("mutants: %d total, %d non-equivalent, all caught; per operator: %v", total, nonEquiv, nonEquivByOp)
}

// TestMutantsAreValidAndDeterministic pins the generator contract:
// mutants pass Validate (NewProgram enforces it) and the same seed
// reproduces the same mutant set.
func TestMutantsAreValidAndDeterministic(t *testing.T) {
	prog := compileHypercube(t, 3)
	a := Mutants(prog, 6, 7)
	b := Mutants(prog, 6, 7)
	if len(a) == 0 {
		t.Fatal("no mutants generated")
	}
	if len(a) != len(b) {
		t.Fatalf("mutant counts differ across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("mutant %d differs across runs: %s vs %s", i, a[i].Name, b[i].Name)
		}
		if err := a[i].Prog.Validate(); err != nil {
			t.Fatalf("mutant %s invalid: %v", a[i].Name, err)
		}
	}
	// The base program must be untouched by mutation (deep clone).
	if err := prog.Validate(); err != nil {
		t.Fatalf("base program corrupted by mutation: %v", err)
	}
	if res, err := Run(prog, Options{}); err != nil || !res.Certified {
		t.Fatalf("base program no longer certifies after mutant generation: %v %v", res, err)
	}
}
