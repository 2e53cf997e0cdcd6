package schedule

import (
	"errors"
	"slices"
	"testing"

	"productsort/internal/faults"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// TestExecBackendDisabledTracerZeroAlloc pins the hot-path guarantee
// documented on ExecBackend.Tracer: with the tracer nil, a full replay
// performs zero heap allocations.
func TestExecBackendDisabledTracerZeroAlloc(t *testing.T) {
	net := product.MustNew(graph.Path(4), 3)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := randomKeys(net.Nodes(), 11)
	be := ExecBackend{}
	// Warm up once so lazy plan/cost state (if any) is built outside the
	// measured window; the schedule is oblivious, so re-sorting sorted
	// keys replays the identical op sequence.
	if _, err := be.Run(prog, keys); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := be.Run(prog, keys); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled-tracer replay allocates %.1f per run, want 0", allocs)
	}
}

// phaseTally counts phase events by kind and verifies begin/end pairing.
type phaseTally struct {
	begins, ends  int
	exchanges     int
	routed        int
	idle          int
	pairs         int
	rounds        int
	s2Rounds      int
	sweepRounds   int
	openMismatch  bool
	lastBeginSeen obs.Phase
}

func (c *phaseTally) PhaseBegin(p obs.Phase) {
	c.begins++
	c.lastBeginSeen = p
}

func (c *phaseTally) PhaseEnd(p obs.Phase) {
	c.ends++
	if p != c.lastBeginSeen {
		c.openMismatch = true
	}
	switch p.Kind {
	case obs.PhaseExchange:
		c.exchanges++
	case obs.PhaseRouted:
		c.routed++
	case obs.PhaseIdle:
		c.idle++
	}
	c.pairs += p.Pairs
	c.rounds += p.Cost
	if p.S2 {
		c.s2Rounds += p.Cost
	} else {
		c.sweepRounds += p.Cost
	}
}

func (c *phaseTally) RecoveryEvent(obs.Recovery) {}
func (c *phaseTally) MessageStats(obs.Messages)  {}

// TestTraceEventsMatchClock replays every factor family with a tracer
// attached and checks that the event stream reconstructs the clock
// exactly: round charges, the S2/sweep split, phase kind counts, and
// compare-op totals all match the program's precomputed clock.
func TestTraceEventsMatchClock(t *testing.T) {
	for _, f := range families() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			net, err := product.New(f.g, f.r)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(net, nil)
			if err != nil {
				t.Fatal(err)
			}
			keys := randomKeys(net.Nodes(), 17)
			tally := &phaseTally{}
			clk, err := ExecBackend{Tracer: tally}.Run(prog, keys)
			if err != nil {
				t.Fatal(err)
			}
			if tally.openMismatch || tally.begins != tally.ends {
				t.Fatalf("unbalanced begin/end events: %d begins, %d ends", tally.begins, tally.ends)
			}
			if tally.rounds != clk.Rounds {
				t.Errorf("event rounds %d != clock rounds %d", tally.rounds, clk.Rounds)
			}
			if tally.s2Rounds != clk.S2Rounds || tally.sweepRounds != clk.SweepRounds {
				t.Errorf("event split s2=%d/sweep=%d != clock s2=%d/sweep=%d",
					tally.s2Rounds, tally.sweepRounds, clk.S2Rounds, clk.SweepRounds)
			}
			if got := tally.exchanges + tally.routed; got != clk.ComparePhases {
				t.Errorf("exchange events %d != compare phases %d", got, clk.ComparePhases)
			}
			if tally.routed != clk.RoutedPhases {
				t.Errorf("routed events %d != routed phases %d", tally.routed, clk.RoutedPhases)
			}
			if tally.pairs != clk.CompareOps {
				t.Errorf("event pairs %d != compare ops %d", tally.pairs, clk.CompareOps)
			}
			// The recorder rebuilds the same totals from the wire format.
			rec := obs.NewRecorder()
			keys2 := randomKeys(net.Nodes(), 17)
			if _, err := (ExecBackend{Tracer: rec}).Run(prog, keys2); err != nil {
				t.Fatal(err)
			}
			if rec.RoundTotal() != clk.Rounds {
				t.Errorf("recorder total %d != clock rounds %d", rec.RoundTotal(), clk.Rounds)
			}
		})
	}
}

// recoveryTally counts recovery events by kind (with multiplicities)
// and sums their round charges.
type recoveryTally struct {
	counts [obs.RecoveryUnrecoverable + 1]int
	rounds int
}

func (c *recoveryTally) PhaseBegin(obs.Phase) {}
func (c *recoveryTally) PhaseEnd(obs.Phase)   {}
func (c *recoveryTally) MessageStats(obs.Messages) {
}

func (c *recoveryTally) RecoveryEvent(ev obs.Recovery) {
	c.counts[ev.Kind] += ev.N()
	c.rounds += ev.Rounds
}

// TestChaosEventsMatchFaultReport runs a chaos replay with recovery
// tracing attached and checks the event stream against the fault
// report: every counter the plan accumulates has a one-for-one event
// mirror, and the recovery events' round charges sum to exactly the
// clock's RecoveryRounds. This is the contract documented on
// ResilientBackend.Tracer.
func TestChaosEventsMatchFaultReport(t *testing.T) {
	const k = 8
	for _, cfg := range []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(4), 2},
		{graph.Cycle(5), 2},
		{graph.CompleteBinaryTree(3), 2}, // routed exchanges in the base program
	} {
		net := product.MustNew(cfg.g, cfg.r)
		prog, err := Compile(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys := nodeKeys(net.Nodes(), 7)
		plan := faults.NewPlan(faults.Config{Seed: 13, DropRate: 0.05, StallRate: 0.03, CorruptRate: 0.05})
		tally := &recoveryTally{}
		clk, err := ResilientBackend{Plan: plan, CheckpointEvery: k, Tracer: tally}.Run(prog, keys)
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		fr := clk.Faults
		if got := tally.counts[obs.RecoveryScrubDetect]; got != fr.Detected {
			t.Errorf("%s: scrub-detect events %d != detected %d", net.Name(), got, fr.Detected)
		}
		if got := tally.counts[obs.RecoveryRetry] + tally.counts[obs.RecoveryRetransmit]; got != fr.Retried {
			t.Errorf("%s: retry+retransmit events %d != retried %d", net.Name(), got, fr.Retried)
		}
		if got := tally.counts[obs.RecoveryRepairPass]; got != fr.RepairPasses {
			t.Errorf("%s: repair-pass events %d != repair passes %d", net.Name(), got, fr.RepairPasses)
		}
		if got := tally.counts[obs.RecoveryStallWait]; got != fr.Stalled {
			t.Errorf("%s: stall-wait events %d != stalled %d", net.Name(), got, fr.Stalled)
		}
		if got := tally.counts[obs.RecoveryUnrecoverable]; got != fr.Unrecoverable {
			t.Errorf("%s: unrecoverable events %d != unrecoverable %d", net.Name(), got, fr.Unrecoverable)
		}
		if tally.rounds != clk.RecoveryRounds {
			t.Errorf("%s: recovery events carry %d rounds, clock charged %d",
				net.Name(), tally.rounds, clk.RecoveryRounds)
		}
		// Every checkpoint window snapshots once; retries and halvings
		// only add windows, so the first full sweep is a lower bound.
		minCheckpoints := (prog.Clock().ComparePhases + k - 1) / k
		if got := tally.counts[obs.RecoveryCheckpoint]; got < minCheckpoints {
			t.Errorf("%s: %d checkpoint events, want >= %d", net.Name(), got, minCheckpoints)
		}
	}
}

// TestResilientQuietEmitsNoRecoveryEvents: a nil or quiet plan is
// rejected with ErrQuietPlan before any key moves, and the recovery
// tracer sees no event.
func TestResilientQuietEmitsNoRecoveryEvents(t *testing.T) {
	net := product.MustNew(graph.Path(3), 2)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*faults.Plan{nil, faults.NewPlan(faults.Config{Seed: 9})} {
		tally := &recoveryTally{}
		keys := nodeKeys(net.Nodes(), 4)
		want := slices.Clone(keys)
		clk, err := ResilientBackend{Plan: plan, Tracer: tally}.Run(prog, keys)
		if !errors.Is(err, ErrQuietPlan) {
			t.Fatalf("plan %v: error %v, want ErrQuietPlan", plan, err)
		}
		if clk != (simnet.Clock{}) || !slices.Equal(keys, want) {
			t.Fatalf("plan %v: rejected run charged %+v or moved keys", plan, clk)
		}
		for kind, n := range tally.counts {
			if n != 0 {
				t.Errorf("plan %v: quiet run emitted %d %s events", plan, n, obs.RecoveryKind(kind))
			}
		}
	}
}

// TestResilientTracedInnerKeepsS2Attribution: under faults the phases
// replayed in place still attribute their rounds to the right stage.
func TestResilientTracedInnerKeepsS2Attribution(t *testing.T) {
	net := product.MustNew(graph.Cycle(4), 3)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	tally := &phaseTally{}
	keys := nodeKeys(net.Nodes(), 6)
	plan := faults.NewPlan(faults.Config{Seed: 21, DropRate: 0.03, CorruptRate: 0.03})
	clk, err := ResilientBackend{Plan: plan, Tracer: tally}.Run(prog, keys)
	if err != nil {
		t.Fatal(err)
	}
	base := prog.Clock()
	if base.S2Rounds == 0 || base.SweepRounds == 0 {
		t.Fatalf("test network needs both stages (s2=%d sweep=%d)", base.S2Rounds, base.SweepRounds)
	}
	// Phase events cover at least every base round in each stage;
	// retried windows replay phases, so each stage can only gain. (Drops
	// can shrink a phase's pair list but never its round charge.)
	if tally.s2Rounds < base.S2Rounds {
		t.Errorf("s2 phase events carry %d rounds, base program has %d", tally.s2Rounds, base.S2Rounds)
	}
	if tally.sweepRounds < base.SweepRounds {
		t.Errorf("sweep phase events carry %d rounds, base program has %d", tally.sweepRounds, base.SweepRounds)
	}
	if clk.RecoveryRounds == 0 {
		t.Error("chaos run charged no recovery rounds; rates too low for this test to bite")
	}
}

// phaseLog records every completed phase event.
type phaseLog struct{ phases []obs.Phase }

func (l *phaseLog) PhaseBegin(obs.Phase)       {}
func (l *phaseLog) PhaseEnd(p obs.Phase)       { l.phases = append(l.phases, p) }
func (l *phaseLog) RecoveryEvent(obs.Recovery) {}
func (l *phaseLog) MessageStats(obs.Messages)  {}

// TestResilientPhaseEventsCarryProgramOps: a faulted replay traces each
// phase under the program's own op index, so phase events line up with
// the ops and with the recovery events' Phase field. The set of traced
// indices is exactly the program's exchange ops, and each event carries
// its op's stage, cost, kind and dimension.
func TestResilientPhaseEventsCarryProgramOps(t *testing.T) {
	net := product.MustNew(graph.Cycle(4), 3)
	prog, err := Compile(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	inS2 := make(map[int]bool)
	s2 := false
	for i, op := range prog.Ops() {
		switch op.Kind {
		case OpBeginS2:
			s2 = true
		case OpEndS2:
			s2 = false
		case OpCompareExchange, OpRoutedExchange:
			inS2[i] = s2
		}
	}
	log := &phaseLog{}
	plan := faults.NewPlan(faults.Config{Seed: 21, DropRate: 0.03, StallRate: 0.02, CorruptRate: 0.1})
	clk, err := ResilientBackend{Plan: plan, Tracer: log}.Run(prog, nodeKeys(net.Nodes(), 6))
	if err != nil {
		t.Fatal(err)
	}
	if clk.RecoveryRounds == 0 {
		t.Fatal("chaos run charged no recovery rounds; rates too low for this test to bite")
	}
	seen := make(map[int]bool)
	for _, ev := range log.phases {
		s2, ok := inS2[ev.Index]
		if !ok {
			t.Fatalf("phase event index %d is not an exchange op of the program", ev.Index)
		}
		seen[ev.Index] = true
		op := prog.Ops()[ev.Index]
		want := phaseEvent(&op, ev.Index, s2)
		if ev.S2 != want.S2 || ev.Cost != want.Cost || ev.Kind != want.Kind || ev.Dim != want.Dim {
			t.Fatalf("phase event %+v does not match op %d (%+v)", ev, ev.Index, want)
		}
		if ev.Pairs < 1 || ev.Pairs > len(op.Pairs) {
			t.Fatalf("phase event %+v carries %d pairs, op has %d", ev, ev.Pairs, len(op.Pairs))
		}
	}
	if len(seen) != len(inS2) {
		t.Fatalf("phase events cover %d distinct ops, program has %d exchange ops", len(seen), len(inS2))
	}
	if len(log.phases) <= len(inS2) {
		t.Errorf("%d phase events for %d exchange ops: no window was replayed", len(log.phases), len(inS2))
	}
}
