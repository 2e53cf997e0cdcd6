package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"productsort/internal/core"
	"productsort/internal/emit"
	"productsort/internal/emit/multiway"
	"productsort/internal/emit/periodic"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/sort2d"
)

// mixedPlanner builds the canonical cross-family planner the tests pin:
// hypercubes up to 2^maxR nodes plus multiway and periodic candidates
// over the same size range.
func mixedPlanner(t *testing.T, maxR int) *Planner {
	t.Helper()
	cands := []Candidate{}
	for r := 1; r <= maxR; r++ {
		cands = append(cands, ProductCandidate(product.MustNew(graph.K2(), r), nil))
	}
	fam, err := FamilyCandidates([]string{emit.FamilyMultiway, emit.FamilyPeriodic}, 1<<maxR)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(append(cands, fam...))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestCrossFamilySelection pins the planner's argmin across families at
// the frontier boundaries: product and periodic each win somewhere,
// and every family loses somewhere — the point of mixing them;
// multiway ties the winner at 2 and 4 keys and loses the name
// tie-break. The preconditions
// that make every case a genuine boundary are asserted alongside the
// selection, so a cost-model change fails with a readable message.
func TestCrossFamilySelection(t *testing.T) {
	eng := sort2d.Auto{}
	cube3 := product.MustNew(graph.K2(), 3)
	if p, m := periodic.Rounds(8), multiway.Rounds(8, multiway.DefaultSorter); p >= m || p >= core.PredictedRounds(cube3, eng) {
		t.Fatalf("precondition: periodic(8)=%d should beat multiway(8)=%d and product(8)=%d",
			p, m, core.PredictedRounds(cube3, eng))
	}
	pl := mixedPlanner(t, 4)

	cases := []struct {
		n           int
		family      string
		name        string
		whyBoundary string
	}{
		// All three tie at one round (K2^1's odd round has no pair); the
		// name tie-break ("K2^1" < "multiway4[2]" < "periodic[2]")
		// decides.
		{2, emit.FamilyProduct, "K2^1", "three-way tie broken by name"},
		// Product ties multiway at 3 rounds and wins the name tie-break
		// ("K2^2" < "multiway4[4]"): the product family must still win
		// sizes where the emitters have no edge.
		{3, emit.FamilyProduct, "K2^2", "product ties multiway, name break"},
		{4, emit.FamilyProduct, "K2^2", "product ties multiway, name break"},
		// Periodic's log² depth beats both beyond 8 lines.
		{8, emit.FamilyPeriodic, "periodic[8]", "periodic beats both"},
		// A non-power-of-two request is covered by the next emitted size
		// up; periodic[8] at 9 rounds still beats the 8-node product
		// networks.
		{5, emit.FamilyPeriodic, "periodic[8]", "covering size is emitted"},
		{16, emit.FamilyPeriodic, "periodic[16]", "periodic beats both"},
	}
	for _, c := range cases {
		plan, err := pl.For(c.n)
		if err != nil {
			t.Fatalf("For(%d): %v", c.n, err)
		}
		if plan.Family != c.family || plan.Name() != c.name {
			t.Fatalf("For(%d) chose %s/%s (%d rounds), want %s/%s (%s)",
				c.n, plan.Family, plan.Name(), plan.Rounds, c.family, c.name, c.whyBoundary)
		}
	}
}

// TestEmittedPlansCarryNoHost: a plan carries no network, only its
// candidate's node count and build; the program every plan's build
// returns — the emitter's on an emitted plan, the compiled product
// program on a product one — has exactly the plan's node count, and an
// emitted plan's name ends in it.
func TestEmittedPlansCarryNoHost(t *testing.T) {
	pl := mixedPlanner(t, 6)
	emitted := 0
	for _, p := range pl.Plans() {
		prog, err := p.build()
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if prog.Nodes() != p.Nodes() {
			t.Fatalf("%s plan %s: %d nodes, its program %d", p.Family, p.Name(), p.Nodes(), prog.Nodes())
		}
		if p.Family == emit.FamilyProduct {
			continue
		}
		emitted++
		if want := fmt.Sprintf("[%d]", p.Nodes()); !strings.HasSuffix(p.Name(), want) {
			t.Fatalf("emitted plan %s: name does not end in %s", p.Name(), want)
		}
	}
	if emitted != 12 { // multiway and periodic at 2..64 keys
		t.Fatalf("%d emitted plans, want 12", emitted)
	}
}

// TestCrossFamilyArgminIsExact re-derives every selection independently:
// for each request size, the chosen plan must match a brute-force scan
// over all covering candidates minimizing (Rounds, Nodes, Name).
func TestCrossFamilyArgminIsExact(t *testing.T) {
	pl := mixedPlanner(t, 5)
	plans := pl.Plans()
	for n := 1; n <= pl.MaxKeys(); n++ {
		var want *Plan
		for _, p := range plans {
			if p.Nodes() < n {
				continue
			}
			if want == nil ||
				p.Rounds < want.Rounds ||
				(p.Rounds == want.Rounds && p.Nodes() < want.Nodes()) ||
				(p.Rounds == want.Rounds && p.Nodes() == want.Nodes() && p.Name() < want.Name()) {
				want = p
			}
		}
		got, err := pl.For(n)
		if err != nil {
			t.Fatalf("For(%d): %v", n, err)
		}
		if got != want {
			t.Fatalf("For(%d) = %s/%s (%d rounds), brute force says %s/%s (%d rounds)",
				n, got.Family, got.Name(), got.Rounds, want.Family, want.Name(), want.Rounds)
		}
	}
}

// TestCandidateValidation: incomplete candidates are construction
// errors, and the family catalog rejects unknown families, the product
// family (it has no emitter) and sizes the emitters do not build,
// before building anything.
func TestCandidateValidation(t *testing.T) {
	ok := func() Candidate {
		c, err := FamilyCandidate(emit.FamilyPeriodic, 2)
		if err != nil {
			t.Fatalf("FamilyCandidate: %v", err)
		}
		return c
	}
	bad := []Candidate{
		{},
		func() Candidate { c := ok(); c.Family = ""; return c }(),
		func() Candidate { c := ok(); c.Name = ""; return c }(),
		func() Candidate { c := ok(); c.Nodes = 0; return c }(),
		func() Candidate { c := ok(); c.Rounds = -1; return c }(),
		func() Candidate { c := ok(); c.Build = nil; return c }(),
	}
	for i, c := range bad {
		if _, err := NewPlanner([]Candidate{c}); err == nil {
			t.Errorf("bad candidate %d accepted", i)
		}
	}
	for _, tc := range []struct {
		family string
		n      int
		err    string
	}{
		{"fancy", 16, `serve: unknown network family "fancy"`},
		{emit.FamilyProduct, 16, `serve: unknown network family "product"`},
		{emit.FamilyMultiway, 12, "multiway: 12 lines: power of two >= 2 required"},
		{emit.FamilyPeriodic, 1, "periodic: 1 lines: power of two >= 2 required"},
	} {
		if _, err := FamilyCandidate(tc.family, tc.n); err == nil || err.Error() != tc.err {
			t.Errorf("FamilyCandidate(%s, %d) = %v, want %q", tc.family, tc.n, err, tc.err)
		}
	}
	if _, err := FamilyCandidates([]string{"fancy"}, 16); err == nil {
		t.Error("unknown family accepted")
	}
	if got, err := FamilyCandidates([]string{emit.FamilyProduct}, 16); err != nil || len(got) != 0 {
		t.Errorf("product family should be accepted and ignored, got %v %v", got, err)
	}
}

// TestServedFamilyMetadataAndCounter drives a mixed-family server end
// to end: a size the periodic family wins must be sorted by the emitted
// program, carry the family in its reply metadata, and bump the
// serve.planner.family.periodic flush counter; a size the product
// family wins must report product.
func TestServedFamilyMetadataAndCounter(t *testing.T) {
	met := obs.NewMetrics()
	srv, err := New(Config{Planner: mixedPlanner(t, 4), Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())

	sortVia := func(keys []Key) Reply {
		t.Helper()
		out, err := srv.Submit(context.Background(), keys)
		if err != nil {
			t.Fatal(err)
		}
		return <-out
	}

	rep := sortVia([]Key{9, 3, 7, 1, 8, 2, 6, 5}) // size 8: periodic wins
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Family != emit.FamilyPeriodic || rep.Network != "periodic[8]" {
		t.Fatalf("size-8 reply: family %q network %q, want periodic/periodic[8]", rep.Family, rep.Network)
	}
	if !sort.SliceIsSorted(rep.Keys, func(i, j int) bool { return rep.Keys[i] < rep.Keys[j] }) {
		t.Fatalf("emitted-family flush returned unsorted keys: %v", rep.Keys)
	}
	if len(rep.Keys) != 8 {
		t.Fatalf("reply sliced to %d keys, want 8", len(rep.Keys))
	}

	rep = sortVia([]Key{4, 2, 3}) // size 3: product (K2^2) wins the tie
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Family != emit.FamilyProduct {
		t.Fatalf("size-3 reply: family %q, want product", rep.Family)
	}

	if v := met.Counter("serve.planner.family.periodic").Value(); v < 1 {
		t.Fatalf("serve.planner.family.periodic = %d, want >= 1", v)
	}
	if v := met.Counter("serve.planner.family.product").Value(); v < 1 {
		t.Fatalf("serve.planner.family.product = %d, want >= 1", v)
	}
}
