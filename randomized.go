// Randomized sorting: the public face of the internal/randsort engine.
// Where SortResilient defends an oblivious schedule against faults
// with checkpoints and retries, SortRandomized has no schedule to
// defend — pairs are drawn from a distribution q over the network's
// links, faults merely thin the draw, and a seeded 0-1 verifier plus a
// deterministic scrub certify the probabilistic outcome.

package productsort

import (
	"errors"
	"fmt"

	"productsort/internal/randsort"
	"productsort/internal/simnet"
)

// ErrRoundCap reports that a randomized sort hit its hard round cap
// before the verifier and final scrub accepted the keys as sorted. The
// accompanying Result still carries the partial state and the full
// convergence accounting — under heavy faults the engine degrades to
// "not done yet", never to a wrong answer.
var ErrRoundCap = randsort.ErrRoundCap

// RandomizedConfig configures SortRandomized. The zero value selects
// the uniform q distribution, the package defaults, and no faults.
type RandomizedConfig struct {
	// Q names the pair distribution: "uniform" (default) or
	// "snake-biased" (snake steps up-weighted 4x).
	Q string
	// Seed drives every random choice — pair draws, sortedness samples,
	// verifier vectors. Runs are reproducible per (network, config).
	Seed int64
	// MaxRounds caps the synchronous rounds (0 = 256 per node).
	MaxRounds int
	// CheckEvery is the termination-check cadence in rounds (0 = 8).
	CheckEvery int
	// DrawsPerRound is the q draws attempted per round (0 = node count).
	DrawsPerRound int
	// SamplePairs is the sampled sortedness gate's probe count (0 = 24).
	SamplePairs int
	// VerifyVectors is the 0-1 vector budget per verifier run (0 = 2048).
	VerifyVectors int
	// Faults optionally injects the same deterministic fault plans
	// SortResilient takes. Drops and stalls thin the drawn pairs
	// (costing rounds, never correctness), corruption flips live key
	// bits (caught by the scrub), dead links shrink the draw pool and
	// re-price snake steps as detours. The checkpoint/retry knobs
	// (CheckpointEvery, MaxRetries, MaxRepairPasses) are meaningless
	// here and ignored: there is no schedule to replay.
	Faults FaultConfig
}

// RandomizedReport carries the convergence accounting of one
// SortRandomized run.
type RandomizedReport struct {
	// Variant is the realized q distribution's name.
	Variant string
	// Rounds is the number of synchronous rounds drawn; RoundCharge the
	// cost-model parallel time including routed detours (also surfaced
	// as Result.Rounds).
	Rounds, RoundCharge int
	// Draws counts q draws; Applied the compare-exchanges that survived
	// matching and fault thinning.
	Draws, Applied int
	// Checks counts termination checks, SamplePasses how many passed
	// the sampled sortedness gate, VerifyRuns the 0-1 verifier
	// invocations over the realized comparator sequence.
	Checks, SamplePasses, VerifyRuns int
	// VerifyVectors totals the 0-1 vectors the verifier replayed.
	VerifyVectors uint64
	// VerifierAccepted records whether the final verifier run certified
	// the realized comparator sequence; ScrubSorted the deterministic
	// full-order scrub verdict; Converged whether the run terminated by
	// acceptance rather than the round cap.
	VerifierAccepted, ScrubSorted, Converged bool
}

// SortRandomized sorts keys (snake order, like Sort) with the
// randomized pairwise engine: repeatedly draw node pairs from q and
// compare-exchange them until a sampled sortedness gate, a seeded 0-1
// certification of the realized comparator sequence, and a final
// deterministic scrub all accept. The compiled program is not used —
// the engine is schedule-free, which is exactly why faults degrade it
// gracefully — but the entry lives on CompiledNetwork so the tracer
// carries over. Faults act on product edges, so
// every drawn comparator executes: nothing here runs the pruned batch
// stream.
//
// On ErrRoundCap the Result reports the degraded partial state; any
// other error is a configuration or verifier failure.
func (c *CompiledNetwork) SortRandomized(keys []Key, cfg RandomizedConfig) (*Result, error) {
	if f := c.Family(); f != FamilyProduct {
		// The pairwise engine draws from the product network's edge
		// distribution; on an emitted family's 1-D host that would be a
		// different (and absurdly slower) algorithm, not this network.
		return nil, fmt.Errorf("productsort: SortRandomized on %s network: %w", f, ErrUnsupportedFamily)
	}
	if len(keys) != c.nw.Nodes() {
		return nil, fmt.Errorf("productsort: %d keys for %d nodes", len(keys), c.nw.Nodes())
	}
	variant, err := randsort.VariantByName(cfg.Q)
	if err != nil {
		return nil, err
	}
	plan, err := cfg.Faults.plan(c.nw.Dims())
	if err != nil {
		return nil, err
	}
	if plan.Config().Quiet() {
		plan = nil
	}
	eng, err := randsort.New(c.nw.net, randsort.Config{
		Variant:       variant,
		Seed:          cfg.Seed,
		MaxRounds:     cfg.MaxRounds,
		CheckEvery:    cfg.CheckEvery,
		DrawsPerRound: cfg.DrawsPerRound,
		SamplePairs:   cfg.SamplePairs,
		VerifyVectors: cfg.VerifyVectors,
		Faults:        plan,
		Tracer:        c.tracer,
	})
	if err != nil {
		return nil, err
	}
	byNode := c.byNode(keys)
	rep, err := eng.Sort(byNode)
	if err != nil && !errors.Is(err, ErrRoundCap) {
		return nil, err
	}
	clk := simnet.Clock{Rounds: rep.RoundCharge, RoutedPhases: rep.Routed}
	res := newResult(clk, eng.Name(), c.snake(byNode), byNode)
	res.Random = &RandomizedReport{
		Variant:          rep.Variant,
		Rounds:           rep.Rounds,
		RoundCharge:      rep.RoundCharge,
		Draws:            rep.Draws,
		Applied:          rep.Applied,
		Checks:           rep.Checks,
		SamplePasses:     rep.SamplePasses,
		VerifyRuns:       rep.VerifyRuns,
		VerifyVectors:    rep.VerifyVectors,
		VerifierAccepted: rep.VerifierAccepted,
		ScrubSorted:      rep.ScrubSorted,
		Converged:        rep.Converged,
	}
	if plan != nil {
		res.Faults = &FaultReport{
			Injected:  rep.Faults.Injected,
			Dropped:   rep.Faults.Dropped,
			Stalled:   rep.Faults.Stalled,
			Corrupted: rep.Faults.Corrupted,
			DeadLinks: rep.Faults.DeadLinks,
			Rerouted:  rep.Faults.Rerouted,
		}
	}
	return res, err
}
