package productsort

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"productsort/internal/serve"
)

// servedPlanner returns the planner NewServer built for s. The serve
// package keeps it unexported, so the plan-table tests read the field
// by reflection: they pin the exact table the server serves, through
// no API of their own.
func servedPlanner(s *Server) *serve.Planner {
	f := reflect.ValueOf(s.s).Elem().FieldByName("planner")
	return *(**serve.Planner)(unsafe.Pointer(f.UnsafeAddr()))
}

// reachablePlans returns the plans pl picks for some request size up
// to its largest, in pick order, with the range of sizes each serves.
// It fails t unless every size maps to one contiguous range and the
// reachable plans are exactly those picked for their own node count.
func reachablePlans(t *testing.T, pl *serve.Planner) (plans []*serve.Plan, lo, hi []int) {
	t.Helper()
	for n := 1; n <= pl.MaxKeys(); n++ {
		p, err := pl.For(n)
		if err != nil {
			t.Fatalf("For(%d): %v", n, err)
		}
		if k := len(plans); k > 0 && plans[k-1] == p {
			hi[k-1] = n
			continue
		}
		for _, q := range plans {
			if q == p {
				t.Fatalf("plan %s picked for sizes on both sides of another plan", p.Name())
			}
		}
		plans, lo, hi = append(plans, p), append(lo, n), append(hi, n)
	}
	own := 0
	for _, p := range pl.Plans() {
		if pick, _ := pl.For(p.Nodes()); pick == p {
			own++
		}
	}
	if own != len(plans) {
		t.Fatalf("%d plans are picked for their own node count, %d for some size", own, len(plans))
	}
	return plans, lo, hi
}

// TestDefaultServerPlanTable pins the plan table of both default
// servers (4096 keys, product-only and with the multiway and periodic
// families): every reachable plan's family, name, node count and
// planner price, and the request sizes the planner picks it for. Every
// size from 1 to 4096 falls in exactly one listed range.
func TestDefaultServerPlanTable(t *testing.T) {
	for _, tc := range []struct {
		families []string
		want     string
	}{
		{nil, `
1-2 product K2^1 nodes=2 rounds=1
3-4 product K2^2 nodes=4 rounds=3
5-8 product K2^3 nodes=8 rounds=14
9-16 product cycle4^2 nodes=16 rounds=20
17-32 product K2^5 nodes=32 rounds=60
33-64 product cycle4^3 nodes=64 rounds=82
65-128 product K2^7 nodes=128 rounds=138
129-256 product cycle4^4 nodes=256 rounds=186
257-512 product K2^9 nodes=512 rounds=248
513-1024 product K2^10 nodes=1024 rounds=315
1025-2048 product K2^11 nodes=2048 rounds=390
2049-4096 product K2^12 nodes=4096 rounds=473
`},
		{[]string{FamilyMultiway, FamilyPeriodic}, `
1-2 product K2^1 nodes=2 rounds=1
3-4 product K2^2 nodes=4 rounds=3
5-8 periodic periodic[8] nodes=8 rounds=9
9-16 periodic periodic[16] nodes=16 rounds=16
17-32 periodic periodic[32] nodes=32 rounds=25
33-64 periodic periodic[64] nodes=64 rounds=36
65-128 periodic periodic[128] nodes=128 rounds=49
129-256 periodic periodic[256] nodes=256 rounds=64
257-512 periodic periodic[512] nodes=512 rounds=81
513-1024 periodic periodic[1024] nodes=1024 rounds=100
1025-2048 periodic periodic[2048] nodes=2048 rounds=121
2049-4096 periodic periodic[4096] nodes=4096 rounds=144
`},
	} {
		s, err := NewServer(ServerConfig{Families: tc.families})
		if err != nil {
			t.Fatal(err)
		}
		plans, lo, hi := reachablePlans(t, servedPlanner(s))
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString("\n")
		for i, p := range plans {
			fmt.Fprintf(&b, "%d-%d %s %s nodes=%d rounds=%d\n", lo[i], hi[i], p.Family, p.Name(), p.Nodes(), p.Rounds)
		}
		if got := b.String(); got != tc.want {
			t.Errorf("families %v: plan table\n%s\nwant\n%s", tc.families, got, tc.want)
		}
	}
}

// TestServedPlanNamesCompile holds the families server's reply names to
// the contract a client rebuilds a served network by: an emitted plan
// "<engine>[<nodes>]" is CompileFamily(family, nodes), and a product
// plan is the same-named network of DefaultServingNetworks(4096). The
// rebuilt network must have the plan's node and round counts.
func TestServedPlanNamesCompile(t *testing.T) {
	s, err := NewServer(ServerConfig{Families: []string{FamilyMultiway, FamilyPeriodic}})
	if err != nil {
		t.Fatal(err)
	}
	plans, _, _ := reachablePlans(t, servedPlanner(s))
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	defaults := map[string]*Network{}
	for _, nw := range DefaultServingNetworks(4096) {
		defaults[nw.Name()] = nw
	}
	for _, p := range plans {
		var c *CompiledNetwork
		if p.Family == FamilyProduct {
			nw := defaults[p.Name()]
			if nw == nil {
				t.Fatalf("product plan %s is no default serving network", p.Name())
			}
			c, err = Compile(nw)
		} else {
			if !strings.HasSuffix(p.Name(), fmt.Sprintf("[%d]", p.Nodes())) {
				t.Fatalf("emitted plan %s does not end in its node count %d", p.Name(), p.Nodes())
			}
			c, err = CompileFamily(p.Family, p.Nodes())
		}
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if c.Network().Nodes() != p.Nodes() || c.Rounds() != p.Rounds {
			t.Fatalf("%s/%s rebuilt with %d nodes, %d rounds; plan has %d nodes, %d rounds",
				p.Family, p.Name(), c.Network().Nodes(), c.Rounds(), p.Nodes(), p.Rounds)
		}
	}
}
