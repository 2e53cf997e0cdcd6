package periodic_test

import (
	"math/rand"
	"sort"
	"testing"

	"productsort/internal/cert"
	"productsort/internal/emit/periodic"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
)

// TestEmitCertifiedExhaustively is the family's machine proof at the CI
// envelope: the DPRS theorem re-proved by brute force per size.
func TestEmitCertifiedExhaustively(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		prog, err := periodic.Emit(n)
		if err != nil {
			t.Fatalf("Emit(%d): %v", n, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("Emit(%d): %v", n, err)
		}
		res, err := cert.Exhaustive(prog, cert.Options{})
		if err != nil {
			t.Fatalf("Emit(%d): %v", n, err)
		}
		if !res.Certified {
			t.Fatalf("Emit(%d) not certified; witness %v", n, res.Witness)
		}
	}
}

// TestEmitSampledLarge: 64 lines under the seeded random 0-1 sweep plus
// random-key equivalence with the standard library through the real
// replay backend.
func TestEmitSampledLarge(t *testing.T) {
	prog, err := periodic.Emit(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.Sampled(prog, cert.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("sampled 64-line periodic failed; witness %v", res.Witness)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		keys := make([]simnet.Key, 64)
		for i := range keys {
			keys[i] = simnet.Key(rng.Intn(1000))
		}
		want := append([]simnet.Key(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if _, err := (schedule.ExecBackend{}).Run(prog, keys); err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("trial %d: pos %d = %d, want %d", trial, i, keys[i], want[i])
			}
		}
	}
}

// TestPeriodicStructure pins what makes the family periodic: the
// program is exactly Passes identical copies of a Period-column block,
// every column is a full perfect matching of mirror pairs, and the
// depth is Period*Passes = log2(n)^2.
func TestPeriodicStructure(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		prog, err := periodic.Emit(n)
		if err != nil {
			t.Fatal(err)
		}
		k := periodic.Period(n)
		ops := prog.Ops()
		if len(ops) != k*k {
			t.Fatalf("n=%d: %d columns, want %d", n, len(ops), k*k)
		}
		if prog.Rounds() != periodic.Rounds(n) {
			t.Fatalf("n=%d: rounds %d, Rounds() predicts %d", n, prog.Rounds(), periodic.Rounds(n))
		}
		for i, op := range ops {
			if op.Kind != schedule.OpCompareExchange || op.Cost != 1 {
				t.Fatalf("n=%d op %d: kind %v cost %d", n, i, op.Kind, op.Cost)
			}
			if len(op.Pairs) != n/2 {
				t.Fatalf("n=%d op %d: %d pairs, want full matching of %d", n, i, len(op.Pairs), n/2)
			}
		}
		// pass p, column j must equal pass 0, column j comparator for
		// comparator.
		for p := 1; p < k; p++ {
			for j := 0; j < k; j++ {
				a, b := ops[j].Pairs, ops[p*k+j].Pairs
				for x := range a {
					if a[x] != b[x] {
						t.Fatalf("n=%d: pass %d column %d differs from pass 0", n, p, j)
					}
				}
			}
		}
	}
}

// TestOnePassMergesInterleavedSorted pins the merging property the
// family is named for (the periodic-merging framing of arXiv
// 1409.1749): a single period is a merging network for two sorted
// sequences stored interleaved — even lines one sorted list, odd lines
// the other. Exhaustive over all 0-1 vectors of that shape; by the 0-1
// principle restricted to this monotone-closed input class, that proves
// the merge for arbitrary keys.
func TestOnePassMergesInterleavedSorted(t *testing.T) {
	const n = 16
	full, err := periodic.Emit(n)
	if err != nil {
		t.Fatal(err)
	}
	k := periodic.Period(n)
	onePass, err := schedule.NewProgram(full.Net(), "periodic-pass", "adhoc", append([]schedule.Op(nil), full.Ops()[:k]...))
	if err != nil {
		t.Fatal(err)
	}
	// A 0-1 vector with both interleaved subsequences sorted is
	// determined by the zero counts (z0, z1) of the even and odd lists.
	for z0 := 0; z0 <= n/2; z0++ {
		for z1 := 0; z1 <= n/2; z1++ {
			keys := make([]simnet.Key, n)
			for i := 0; i < n/2; i++ {
				if i >= z0 {
					keys[2*i] = 1
				}
				if i >= z1 {
					keys[2*i+1] = 1
				}
			}
			if _, err := (schedule.ExecBackend{}).Run(onePass, keys); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < n; i++ {
				if keys[i] < keys[i-1] {
					t.Fatalf("interleaved (%d,%d) zeros: one pass left pos %d unsorted: %v", z0, z1, i, keys)
				}
			}
		}
	}
}

// TestPassCountTight shows the emitted pass count is not padded: for
// n = 16 some 0-1 input survives k-1 passes unsorted, so truncating the
// last period breaks certification.
func TestPassCountTight(t *testing.T) {
	const n = 16
	full, err := periodic.Emit(n)
	if err != nil {
		t.Fatal(err)
	}
	k := periodic.Period(n)
	trunc, err := schedule.NewProgram(full.Net(), "periodic-trunc", "adhoc",
		append([]schedule.Op(nil), full.Ops()[:(k-1)*k]...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.Exhaustive(trunc, cert.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified {
		t.Fatalf("n=%d sorted with only %d passes; pass count is padded", n, k-1)
	}
	if res.Witness == nil || !res.Witness.Minimal {
		t.Fatalf("truncated network rejected without a minimal witness: %+v", res.Witness)
	}
}

func TestEmitRejectsBadShapes(t *testing.T) {
	for _, n := range []int{0, 3, 12, 63} {
		if _, err := periodic.Emit(n); err == nil {
			t.Fatalf("%d lines accepted", n)
		}
	}
}

// TestPassesMatchesPeriod: the pass count equals the period length —
// the defining constant-periodicity property.
func TestPassesMatchesPeriod(t *testing.T) {
	for _, n := range []int{2, 8, 64} {
		if periodic.Passes(n) != periodic.Period(n) {
			t.Fatalf("n=%d: passes %d != period %d", n, periodic.Passes(n), periodic.Period(n))
		}
	}
}
