// Fault-tolerant sorting: the public face of the deterministic fault
// injection and self-healing replay machinery (internal/faults,
// schedule.ResilientBackend).

package productsort

import (
	"errors"
	"fmt"

	"productsort/internal/faults"
	"productsort/internal/schedule"
)

// ErrUnrecoverable reports that fault recovery was exhausted: a key
// corruption survived every retry, or the repair budget ran out before
// the output sorted. The accompanying Result still carries the full
// fault accounting.
var ErrUnrecoverable = schedule.ErrUnrecoverable

// DeadLink names one factor-graph edge forced dead for a whole run:
// the dimension (1-based) and the factor edge's endpoints.
type DeadLink struct {
	Dim, U, V int
}

// FaultConfig configures deterministic fault injection for
// SortResilient. Rates are per-decision probabilities in [0, 1]; the
// zero value injects nothing. Every fault is a pure function of Seed,
// so a run is exactly reproducible — same seed, same faults, same
// recovery, same counters.
type FaultConfig struct {
	// Seed drives every fault decision.
	Seed int64
	// DropRate is the chance a pair's key exchange is lost in flight
	// (it is retransmitted, at a round's cost per attempt).
	DropRate float64
	// StallRate is the chance a processor sits out a round (its
	// exchanges wait, a round's cost per stalled round).
	StallRate float64
	// CorruptRate is the chance a phase flips one bit of one key
	// (detected by checksum scrub, healed by checkpoint retry).
	CorruptRate float64
	// LinkFailRate kills factor-graph links at bind time (bridges are
	// spared so factors stay connected); affected exchanges reroute.
	LinkFailRate float64
	// MaxDeadLinks caps the rate-chosen dead links per factor
	// (0 = no cap).
	MaxDeadLinks int
	// DeadLinks forces specific factor edges dead. A link that does
	// not exist or whose loss would disconnect the factor is an error.
	DeadLinks []DeadLink
	// CheckpointEvery is the checkpoint interval K in exchange phases
	// (<1 = default 16); see THEORY.md for the overhead trade-off.
	CheckpointEvery int
	// MaxRetries bounds full-window retries before the window is
	// halved (<1 = default 3).
	MaxRetries int
	// MaxRepairPasses bounds whole-program repair replays after the
	// final sortedness scrub (<1 = default 3).
	MaxRepairPasses int
}

// FaultConfigError reports one invalid FaultConfig field, named so a
// caller (or its operator) can see exactly which knob is wrong instead
// of decoding a mid-replay panic.
type FaultConfigError struct {
	// Field is the offending FaultConfig field, e.g. "DropRate" or
	// "DeadLinks[2].Dim".
	Field string
	// Reason describes the violation.
	Reason string
}

// Error implements error.
func (e *FaultConfigError) Error() string {
	return fmt.Sprintf("productsort: fault config %s: %s", e.Field, e.Reason)
}

// validate checks cfg up front against a network with dims dimensions.
// Rates must be probabilities in [0, 1] (NaN included in the
// rejection); count fields must not be negative (zero keeps the
// documented default, preserving the zero-value = fault-free
// contract); forced dead links must name a real dimension.
func (cfg FaultConfig) validate(dims int) error {
	rates := []struct {
		name string
		v    float64
	}{
		{"DropRate", cfg.DropRate},
		{"StallRate", cfg.StallRate},
		{"CorruptRate", cfg.CorruptRate},
		{"LinkFailRate", cfg.LinkFailRate},
	}
	for _, r := range rates {
		if !(r.v >= 0 && r.v <= 1) { // negated to catch NaN
			return &FaultConfigError{Field: r.name, Reason: fmt.Sprintf("rate %v outside [0, 1]", r.v)}
		}
	}
	counts := []struct {
		name string
		v    int
	}{
		{"MaxDeadLinks", cfg.MaxDeadLinks},
		{"CheckpointEvery", cfg.CheckpointEvery},
		{"MaxRetries", cfg.MaxRetries},
		{"MaxRepairPasses", cfg.MaxRepairPasses},
	}
	for _, c := range counts {
		if c.v < 0 {
			return &FaultConfigError{Field: c.name, Reason: fmt.Sprintf("negative value %d (0 selects the default)", c.v)}
		}
	}
	for i, dl := range cfg.DeadLinks {
		if dl.Dim < 1 || dl.Dim > dims {
			return &FaultConfigError{
				Field:  fmt.Sprintf("DeadLinks[%d].Dim", i),
				Reason: fmt.Sprintf("dimension %d outside [1, %d]", dl.Dim, dims),
			}
		}
	}
	return nil
}

// plan validates cfg and builds its fault plan.
func (cfg FaultConfig) plan(dims int) (*faults.Plan, error) {
	if err := cfg.validate(dims); err != nil {
		return nil, err
	}
	fc := faults.Config{
		Seed:         cfg.Seed,
		DropRate:     cfg.DropRate,
		StallRate:    cfg.StallRate,
		CorruptRate:  cfg.CorruptRate,
		LinkFailRate: cfg.LinkFailRate,
		MaxDeadLinks: cfg.MaxDeadLinks,
	}
	for _, dl := range cfg.DeadLinks {
		fc.DeadLinks = append(fc.DeadLinks, faults.FactorEdge{Dim: dl.Dim, U: dl.U, V: dl.V})
	}
	return faults.NewPlan(fc), nil
}

// FaultReport surfaces what was injected and what recovery did (and
// cost) during one resilient sort.
type FaultReport struct {
	// Injected totals every realized fault.
	Injected int
	// Dropped, Stalled, Corrupted and DeadLinks break the injections
	// down by kind.
	Dropped, Stalled, Corrupted, DeadLinks int
	// Detected counts scrub detections (checksum or sortedness).
	Detected int
	// Retried counts retransmissions and window retries.
	Retried int
	// RepairPasses counts whole-program repair replays.
	RepairPasses int
	// Rerouted counts exchanges forced onto detours by dead links.
	Rerouted int
	// Unrecoverable counts faults recovery had to give up on.
	Unrecoverable int
	// RecoveryRounds is the extra parallel time recovery cost,
	// included in Result.Rounds.
	RecoveryRounds int
}

// SortResilient replays the compiled program over keys (snake order,
// like Sort) under deterministic fault injection with self-healing
// recovery: checkpoint every K phases, checksum scrubbing, bounded
// retry from checkpoint with window-halving backoff, stall waits and
// drop retransmissions charged as rounds, rerouting (with degraded
// round pricing) around dead links, and a final sortedness scrub with
// bounded repair replays. The Result's Rounds includes the recovery
// cost, and Result.Faults reports the full accounting.
//
// A faulted replay walks the unpruned ops, every comparator of Size:
// faults act on product edges, and a fault breaks the premise under
// which the executed stream drops comparators (THEORY.md §18). A cfg
// that injects nothing (the zero value, for one) is Sort, executed
// stream included, with an all-zero Result.Faults. On exhausted
// recovery the keys-so-far and the report are returned alongside
// ErrUnrecoverable.
func (c *CompiledNetwork) SortResilient(keys []Key, cfg FaultConfig) (*Result, error) {
	if f := c.Family(); f != FamilyProduct {
		// Fault-plan geometry and dead-link rerouting are defined over
		// product-network edges; emitted comparator columns pair
		// arbitrary lines of a 1-D host.
		return nil, fmt.Errorf("productsort: SortResilient on %s network: %w", f, ErrUnsupportedFamily)
	}
	if len(keys) != c.nw.Nodes() {
		return nil, fmt.Errorf("productsort: %d keys for %d nodes", len(keys), c.nw.Nodes())
	}
	plan, err := cfg.plan(c.nw.Dims())
	if err != nil {
		return nil, err
	}
	if plan.Config().Quiet() {
		res, err := c.Sort(keys)
		if err == nil {
			res.Faults = &FaultReport{}
		}
		return res, err
	}
	byNode := c.byNode(keys)
	rb := schedule.ResilientBackend{
		Plan:            plan,
		CheckpointEvery: cfg.CheckpointEvery,
		MaxRetries:      cfg.MaxRetries,
		MaxRepairPasses: cfg.MaxRepairPasses,
		Tracer:          c.tracer,
	}
	clk, err := rb.Run(c.prog, byNode)
	if err != nil && !errors.Is(err, ErrUnrecoverable) {
		return nil, err
	}
	res := newResult(clk, c.prog.Engine(), c.snake(byNode), byNode)
	fr := &FaultReport{
		Injected:       clk.Faults.Injected,
		Dropped:        clk.Faults.Dropped,
		Stalled:        clk.Faults.Stalled,
		Corrupted:      clk.Faults.Corrupted,
		DeadLinks:      clk.Faults.DeadLinks,
		Detected:       clk.Faults.Detected,
		Retried:        clk.Faults.Retried,
		RepairPasses:   clk.Faults.RepairPasses,
		Rerouted:       clk.Faults.Rerouted,
		Unrecoverable:  clk.Faults.Unrecoverable,
		RecoveryRounds: clk.RecoveryRounds,
	}
	res.Faults = fr
	return res, err
}
