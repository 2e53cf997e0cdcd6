package productsort

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeTrace parses Chrome trace_event JSON and returns the complete
// ("X") event count and the sum of their round charges.
func decodeTrace(t *testing.T, data []byte) (phases, rounds int) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		phases++
		r, ok := ev.Args["rounds"].(float64)
		if !ok {
			t.Fatalf("X event without rounds arg: %+v", ev)
		}
		rounds += int(r)
	}
	return phases, rounds
}

// TestTracedSortPG3 is the acceptance path: a traced sort on the 4×4×4
// grid (a PG_3 instance) produces a valid Chrome trace whose per-phase
// round charges sum to exactly the clock's total, with the metrics
// registry agreeing on every shared quantity.
func TestTracedSortPG3(t *testing.T) {
	nw, err := Grid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder()
	metrics := NewMetrics()
	s, err := NewSorter(WithTracer(MultiTracer(rec, NewMetricsCollector(metrics))))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Sort(shuffled(nw.Nodes(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(res.Keys) {
		t.Fatal("output not sorted")
	}
	if got := rec.RoundTotal(); got != res.Rounds {
		t.Errorf("recorder total %d != result rounds %d", got, res.Rounds)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(rec, &buf); err != nil {
		t.Fatal(err)
	}
	phases, rounds := decodeTrace(t, buf.Bytes())
	if phases != rec.Phases() {
		t.Errorf("trace has %d X events, recorder saw %d phases", phases, rec.Phases())
	}
	if rounds != res.Rounds {
		t.Errorf("trace round sum %d != result rounds %d", rounds, res.Rounds)
	}
	snap := metrics.Snapshot()
	if got := snap.Counters["rounds.total"]; got != int64(res.Rounds) {
		t.Errorf("metrics rounds.total = %d, want %d", got, res.Rounds)
	}
	if got := snap.Counters["rounds.s2"]; got != int64(res.S2Rounds) {
		t.Errorf("metrics rounds.s2 = %d, want %d", got, res.S2Rounds)
	}
	if got := snap.Counters["rounds.sweep"]; got != int64(res.SweepRounds) {
		t.Errorf("metrics rounds.sweep = %d, want %d", got, res.SweepRounds)
	}
	if got := snap.Counters["phases.total"]; got != int64(rec.Phases()) {
		t.Errorf("metrics phases.total = %d, recorder saw %d", got, rec.Phases())
	}
}

// TestTracedObserverPathMatchesCompiled: the live-machine path (taken
// when an observer is attached) emits the same round total as the
// compiled replay.
func TestTracedObserverPathMatchesCompiled(t *testing.T) {
	nw, err := Grid(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder()
	s, err := NewSorter(
		WithTracer(rec),
		WithObserver(func(string, []Key) {}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Sort(nw, shuffled(nw.Nodes(), 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.RoundTotal(); got != res.Rounds {
		t.Errorf("observer-path recorder total %d != result rounds %d", got, res.Rounds)
	}
}

// TestTracedSortResilient: a chaos run's recovery events account for
// exactly the recovery rounds the report charges, and the trace still
// decodes as valid JSON with the recovery instants embedded.
func TestTracedSortResilient(t *testing.T) {
	nw, err := Grid(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder()
	metrics := NewMetrics()
	s, err := NewSorter(WithTracer(MultiTracer(rec, NewMetricsCollector(metrics))))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SortResilient(shuffled(nw.Nodes(), 9), FaultConfig{
		Seed: 13, DropRate: 0.03, StallRate: 0.02, CorruptRate: 0.03,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || res.Faults.Injected == 0 {
		t.Fatal("chaos config injected nothing; seed/rates too low for this test")
	}
	if got := rec.RecoveryRounds(); got != res.Faults.RecoveryRounds {
		t.Errorf("recovery events carry %d rounds, report charged %d", got, res.Faults.RecoveryRounds)
	}
	// Retried windows replay and trace their phases again, so
	// the phase stream covers at least the base program's rounds.
	if base := res.Rounds - res.Faults.RecoveryRounds; rec.RoundTotal() < base {
		t.Errorf("phase events sum to %d rounds, below the %d base rounds", rec.RoundTotal(), base)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(rec, &buf); err != nil {
		t.Fatal(err)
	}
	decodeTrace(t, buf.Bytes())
	if got := metrics.Snapshot().Counters["recovery.rounds"]; got != int64(res.Faults.RecoveryRounds) {
		t.Errorf("metrics recovery.rounds = %d, want %d", got, res.Faults.RecoveryRounds)
	}
}

// TestUntracedSortUnchanged: without WithTracer nothing is emitted and
// results are identical to a traced run (tracing must not perturb the
// replay).
func TestUntracedSortUnchanged(t *testing.T) {
	nw, err := Grid(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Sort(nw, shuffled(nw.Nodes(), 7))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder()
	s, err := NewSorter(WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := s.Sort(nw, shuffled(nw.Nodes(), 7))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rounds != traced.Rounds {
		t.Errorf("tracing changed rounds: %d vs %d", plain.Rounds, traced.Rounds)
	}
	for i := range plain.Keys {
		if plain.Keys[i] != traced.Keys[i] {
			t.Fatalf("tracing changed keys at %d", i)
		}
	}
}
