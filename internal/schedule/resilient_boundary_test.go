// Round-charge accounting at the fault-rate boundaries. Interior
// rates are covered statistically by the chaos tests; these pin the
// exact deterministic ledgers at rate 0 (nothing charged) and rate 1.0
// (every exchange exhausts its retry budget), where the per-pair
// attempt loops, the phase-parallel charge rule, and the repair-pass
// budget all hit their extremes at once.

package schedule

import (
	"errors"
	"slices"
	"testing"

	"productsort/internal/faults"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// exchangeStats returns the program's total pair count and the summed
// round cost of its exchange ops — the P and C of the boundary
// ledgers.
func exchangeStats(prog *Program) (pairs, cost int) {
	for i := range prog.ops {
		switch prog.ops[i].Kind {
		case OpCompareExchange, OpRoutedExchange:
			pairs += len(prog.ops[i].Pairs)
			cost += prog.ops[i].Cost
		}
	}
	return pairs, cost
}

// At rate 0 on every axis the plan is quiet, and the backend rejects
// it: no clock, no counters, no key moved.
func TestResilientBoundaryRateZero(t *testing.T) {
	net := product.MustNew(graph.Path(4), 2)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := nodeKeys(net.Nodes(), 3)
	want := slices.Clone(keys)
	plan := faults.NewPlan(faults.Config{Seed: 5})
	clk, err := ResilientBackend{Plan: plan}.Run(prog, keys)
	if !errors.Is(err, ErrQuietPlan) {
		t.Fatalf("rate-0 run: error %v, want ErrQuietPlan", err)
	}
	if clk != (simnet.Clock{}) || plan.Counters() != (faults.Counters{}) || !slices.Equal(keys, want) {
		t.Fatalf("rate-0 run charged %+v, counted %+v or moved keys", clk, plan.Counters())
	}
}

// At DropRate 1.0 every pair burns its full attempt budget on every
// execution and is then abandoned, so the ledger is exact: per
// execution each pair counts pairAttempts drops, pairAttempts-1
// retransmissions, and one unrecoverable loss; the initial run plus
// MaxRepairPasses repair replays gives 4 executions; lost pairs charge
// no phase rounds (nothing was waited out — the exchange simply never
// happened), so recovery cost is exactly the three repair replays of
// the full program; and the run ends unrecoverable because no exchange
// ever commits.
func TestResilientBoundaryDropRateOne(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, cost := exchangeStats(prog)
	keys := nodeKeys(net.Nodes(), 1)
	if snakeSorted(net, keys) {
		t.Fatal("test wants an unsorted input")
	}
	before := append([]simnet.Key(nil), keys...)
	rb := ResilientBackend{Plan: faults.NewPlan(faults.Config{Seed: 2, DropRate: 1})}
	clk, err := rb.Run(prog, keys)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("total drop must exhaust recovery, got %v", err)
	}
	executions := 1 + 3 // initial run + default MaxRepairPasses replays
	want := faults.Counters{
		Injected:      executions * pairs * pairAttempts,
		Dropped:       executions * pairs * pairAttempts,
		Retried:       executions * pairs * (pairAttempts - 1),
		Detected:      3, // one sortedness detection per repair pass
		RepairPasses:  3,
		Unrecoverable: executions*pairs + 1, // every pair, every run, plus the final give-up
	}
	if clk.Faults != want {
		t.Fatalf("drop-1.0 ledger:\n got %+v\nwant %+v", clk.Faults, want)
	}
	if wantRec := 3 * cost; clk.RecoveryRounds != wantRec {
		t.Fatalf("recovery rounds %d, want %d (3 repair replays x program cost %d)",
			clk.RecoveryRounds, wantRec, cost)
	}
	if clk.Rounds != prog.Rounds()+clk.RecoveryRounds {
		t.Fatalf("rounds %d != base %d + recovery %d", clk.Rounds, prog.Rounds(), clk.RecoveryRounds)
	}
	// No exchange ever committed: the keys must be untouched.
	for i := range keys {
		if keys[i] != before[i] {
			t.Fatal("dropped exchanges still moved keys")
		}
	}
}

// At StallRate 1.0 the ledger shifts from the drop loop to the stall
// loop — pairAttempts stalled rounds per pair per execution, no
// retransmissions — with the same abandonment, repair and give-up
// structure.
func TestResilientBoundaryStallRateOne(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, cost := exchangeStats(prog)
	keys := nodeKeys(net.Nodes(), 1)
	rb := ResilientBackend{Plan: faults.NewPlan(faults.Config{Seed: 4, StallRate: 1})}
	clk, err := rb.Run(prog, keys)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("total stall must exhaust recovery, got %v", err)
	}
	executions := 1 + 3
	want := faults.Counters{
		Injected:      executions * pairs * pairAttempts,
		Stalled:       executions * pairs * pairAttempts,
		Detected:      3,
		RepairPasses:  3,
		Unrecoverable: executions*pairs + 1,
	}
	if clk.Faults != want {
		t.Fatalf("stall-1.0 ledger:\n got %+v\nwant %+v", clk.Faults, want)
	}
	if wantRec := 3 * cost; clk.RecoveryRounds != wantRec {
		t.Fatalf("recovery rounds %d, want %d", clk.RecoveryRounds, wantRec)
	}
}

// A sorted input at DropRate 1.0 is the boundary's boundary: every
// exchange is still lost (and counted), but the sortedness scrub finds
// nothing to repair, so the run succeeds with zero repair passes and
// zero recovery rounds.
func TestResilientBoundaryDropRateOneSortedInput(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, _ := exchangeStats(prog)
	keys := make([]simnet.Key, net.Nodes())
	for pos := range keys {
		keys[net.NodeAtSnake(pos)] = simnet.Key(pos)
	}
	rb := ResilientBackend{Plan: faults.NewPlan(faults.Config{Seed: 6, DropRate: 1})}
	clk, err := rb.Run(prog, keys)
	if err != nil {
		t.Fatalf("sorted input should need no repair: %v", err)
	}
	want := faults.Counters{
		Injected:      pairs * pairAttempts,
		Dropped:       pairs * pairAttempts,
		Retried:       pairs * (pairAttempts - 1),
		Unrecoverable: pairs,
	}
	if clk.Faults != want {
		t.Fatalf("sorted-input ledger:\n got %+v\nwant %+v", clk.Faults, want)
	}
	if clk.RecoveryRounds != 0 {
		t.Fatalf("sorted input charged %d recovery rounds", clk.RecoveryRounds)
	}
}
