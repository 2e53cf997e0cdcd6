package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"productsort"
	"productsort/internal/schedule"
	"productsort/internal/workload"
)

// TestFamilyHeadToHead drives the cross-family bench cells end to end
// and checks the rows the artifact publishes: all three families at
// each size, everything certified (the helper errors otherwise), and
// the round ordering the planner tests pin — periodic < multiway <
// product at 64 keys.
func TestFamilyHeadToHead(t *testing.T) {
	gen, err := workload.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := familyHeadToHead(4, gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 6 {
		t.Fatalf("got %d family rows, want 6 (3 families x 2 sizes)", len(fams))
	}
	rounds := map[string]int{}
	for _, e := range fams {
		if e.Rounds < 1 || e.Comparators < 1 || e.ColsPerSetNs < 0 {
			t.Fatalf("degenerate row: %+v", e)
		}
		if e.Nodes == 64 {
			rounds[e.Family] = e.Rounds
		}
		if e.Nodes == 16 && e.CertMode != "exhaustive" {
			t.Fatalf("%s[16] certified %s, want exhaustive", e.Family, e.CertMode)
		}
	}
	if !(rounds[productsort.FamilyPeriodic] < rounds[productsort.FamilyMultiway] &&
		rounds[productsort.FamilyMultiway] < rounds[productsort.FamilyProduct]) {
		t.Fatalf("round ordering at 64 keys: %v, want periodic < multiway < product", rounds)
	}
}

// TestPlannerSelections checks the published pick table: every swept
// request size has a pick, and the non-product gate the bench enforces
// actually holds.
func TestPlannerSelections(t *testing.T) {
	picks, err := plannerSelections()
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 7 {
		t.Fatalf("got %d picks, want 7", len(picks))
	}
	nonProduct := 0
	for _, p := range picks {
		if p.Rounds < 1 || p.Network == "" {
			t.Fatalf("degenerate pick: %+v", p)
		}
		if p.Family != productsort.FamilyProduct {
			nonProduct++
		}
	}
	if nonProduct == 0 {
		t.Fatal("no non-product selection (the helper should have errored)")
	}
}

// TestRunScheduleBench runs the schedule mode end to end at a small
// set count and checks the artifact it writes: every topology entry
// carries a cold time, a warm time, the columnar per-set time and the
// kernel's time per comparator-lane, the header names the dispatched
// kernel, the batch phase compiled nothing beyond the cold builds, and
// both default servers' set-ups are timed.
func TestRunScheduleBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "schedule.json")
	if err := runScheduleBench(path, 4, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep scheduleReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sets != 4 || rep.Workers != 1 || len(rep.Entries) != 6 {
		t.Fatalf("report header: sets %d workers %d entries %d, want 4/1/6", rep.Sets, rep.Workers, len(rep.Entries))
	}
	if rep.Host.Kernel != schedule.KernelName() || rep.KernelLanes != kernelLanes {
		t.Fatalf("report header: kernel %q at %d lanes, want %q at %d", rep.Host.Kernel, rep.KernelLanes, schedule.KernelName(), kernelLanes)
	}
	for _, e := range rep.Entries {
		if e.CompileNs <= 0 || e.ColdNs <= 0 || e.WarmPerSetNs <= 0 || e.ColsPerSetNs <= 0 || e.Rounds < 1 || e.NsPerCompLane <= 0 {
			t.Fatalf("degenerate entry: %+v", e)
		}
	}
	if len(rep.Families) != 6 || len(rep.PlannerSelections) != 7 {
		t.Fatalf("%d family rows and %d planner picks, want 6 and 7", len(rep.Families), len(rep.PlannerSelections))
	}
	if len(rep.ServerSetups) != 2 || len(rep.ServerSetups[0].Families) != 0 || len(rep.ServerSetups[1].Families) != 2 {
		t.Fatalf("server set-ups %+v, want the product-only and the families server", rep.ServerSetups)
	}
	for _, s := range rep.ServerSetups {
		if s.ServerSetupNs <= 0 {
			t.Fatalf("degenerate server set-up: %+v", s)
		}
	}
}
