package cert

import (
	"testing"

	"productsort/internal/emit/multiway"
	"productsort/internal/emit/periodic"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
)

// TestEmittedMutationHarness extends the certifier's mutation battery to
// the emitted network families: the 0-1 engine must be exactly as sharp
// against corrupted multiway and periodic programs as it is against the
// paper's product networks — every non-equivalent mutant rejected with a
// minimized, oracle-confirmed witness, every equivalent mutant certified.
// (Equivalent mutants are common here: periodic columns repeat across
// passes, so reordering or dropping late ops often leaves a program that
// still sorts.)
func TestEmittedMutationHarness(t *testing.T) {
	bases := []struct {
		name string
		prog func() (*schedule.Program, error)
	}{
		{"multiway4[8]", func() (*schedule.Program, error) { return multiway.Emit(8) }},
		{"multiway2[8]", func() (*schedule.Program, error) { return multiway.EmitN(8, 2) }},
		{"periodic[8]", func() (*schedule.Program, error) { return periodic.Emit(8) }},
		{"periodic[16]", func() (*schedule.Program, error) { return periodic.Emit(16) }},
	}
	const perOp = 28
	nonEquiv := 0
	nonEquivByOp := map[string]int{}
	total := 0
	for _, b := range bases {
		prog, err := b.prog()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
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
	t.Logf("emitted mutants: %d total, %d non-equivalent, all caught; per operator: %v", total, nonEquiv, nonEquivByOp)
}

// TestEmittedOracleMatchesExecBackend ties the oracle's reading of
// emitted programs to the real replay backend, the same cross-check the
// product families get: identical outputs for identical 0-1 inputs. On
// the path host the snake permutation is the identity, which this test
// transitively re-verifies.
func TestEmittedOracleMatchesExecBackend(t *testing.T) {
	progs := map[string]*schedule.Program{}
	if p, err := multiway.Emit(8); err == nil {
		progs["multiway4[8]"] = p
	} else {
		t.Fatal(err)
	}
	if p, err := periodic.Emit(8); err == nil {
		progs["periodic[8]"] = p
	} else {
		t.Fatal(err)
	}
	for name, prog := range progs {
		net := prog.Net()
		n := net.Nodes()
		vec := make([]byte, n)
		for v := 0; v < 1<<n; v++ {
			for p := 0; p < n; p++ {
				vec[p] = byte((v >> p) & 1)
			}
			keys := make([]simnet.Key, n)
			for p := 0; p < n; p++ {
				keys[net.NodeAtSnake(p)] = simnet.Key(vec[p])
			}
			if _, err := (schedule.ExecBackend{}).Run(prog, keys); err != nil {
				t.Fatal(err)
			}
			want := oracleReplay(prog, vec)
			for p := 0; p < n; p++ {
				if int(keys[net.NodeAtSnake(p)]) != want[p] {
					t.Fatalf("%s: vector %0*b: backend and oracle disagree at snake pos %d", name, n, v, p)
				}
			}
		}
	}
}
