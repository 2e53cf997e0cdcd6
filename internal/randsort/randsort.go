// Package randsort implements the randomized pairwise sort engine for
// product networks: instead of replaying an oblivious compiled
// schedule, it repeatedly draws compare-exchange pairs from a fixed
// distribution q over the network's edges (plus the snake-consecutive
// pairs that make local order imply global order) and applies them
// until a sampled sortedness check, a seeded 0-1 verifier over the
// realized comparator sequence, and a final deterministic scrub all
// agree the keys are sorted.
//
// The engine has no global proof obligation, which is exactly what
// makes it robust: a fault plan that drops or stalls exchanges merely
// thins q by the survival probability, rescaling the expected
// round count by its reciprocal (THEORY.md §14) instead of breaking a
// schedule invariant. Compare-exchanges are monotone — an oriented
// swap strictly decreases the inversion count against the snake order
// and a corrupt-free process can never unsort — so degraded runs
// converge later, not wrong.
//
// Each realized round is exchanged in place as soon as it is drawn and
// kept as a schedule op, so the realized comparator sequence doubles as
// the input to the cert-sampled runtime verifier (the 0-1 principle
// holds per realization: the comparators actually applied sort every
// input iff they sort every 0-1 vector).
package randsort

import (
	"errors"
	"fmt"
	"sort"

	"productsort/internal/cert"
	"productsort/internal/faults"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
)

// EngineName is the compiled-engine name prefix; the q variant is
// appended ("randsort-uniform" etc.).
const EngineName = "randsort"

// Defaults, resolved by New when the corresponding Config field is 0.
const (
	// DefaultMaxRoundsPerNode scales the hard round cap with the
	// network: MaxRounds = DefaultMaxRoundsPerNode * nodes.
	DefaultMaxRoundsPerNode = 256
	// DefaultCheckEvery is the termination-check cadence in rounds.
	DefaultCheckEvery = 8
	// DefaultSamplePairs is the number of random snake-adjacent pairs
	// probed by the cheap sortedness gate before the verifier runs.
	DefaultSamplePairs = 24
	// DefaultVerifyVectors is the 0-1 vector budget per verifier run.
	DefaultVerifyVectors = 2048
)

// ErrRoundCap reports that the round cap elapsed before the verifier
// and scrub accepted the keys as sorted. The returned Report still
// describes the degraded run; keys hold the partially sorted state.
var ErrRoundCap = errors.New("randsort: round cap reached before verified convergence")

// ConfigError reports an invalid Config field.
type ConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("randsort: config %s: %s", e.Field, e.Reason)
}

// Config parameterizes an Engine. The zero value selects QUniform and
// the package defaults; negative tuning fields are rejected with a
// *ConfigError rather than clamped.
type Config struct {
	// Variant selects the q distribution.
	Variant Variant
	// Seed drives every random choice (pair draws, sortedness samples,
	// verifier vectors). Runs are deterministic per (network, config).
	Seed int64
	// MaxRounds is the hard cap on synchronous rounds (0 selects
	// DefaultMaxRoundsPerNode * nodes).
	MaxRounds int
	// CheckEvery is the termination-check cadence in rounds (0 selects
	// DefaultCheckEvery).
	CheckEvery int
	// DrawsPerRound is the number of q draws attempted per round (0
	// selects the node count, the natural matching density).
	DrawsPerRound int
	// SamplePairs is the sampled sortedness gate's probe count (0
	// selects DefaultSamplePairs).
	SamplePairs int
	// VerifyVectors is the 0-1 vector budget per verifier run (0
	// selects DefaultVerifyVectors).
	VerifyVectors int
	// Faults optionally injects a deterministic fault plan: stalled
	// endpoints and dropped pairs thin the drawn matching, corruption
	// flips key bits mid-run, dead factor links shrink the candidate
	// pool and re-price snake steps as routed detours.
	Faults *faults.Plan
	// Tracer observes realized phases, indexed by their position in
	// the realized sequence.
	Tracer obs.Tracer
	// Metrics optionally receives randsort.* instruments.
	Metrics *obs.Metrics
}

// Report describes one randomized sort run.
type Report struct {
	// Variant is the q distribution's name.
	Variant string `json:"variant"`
	// Rounds is the number of synchronous rounds drawn.
	Rounds int `json:"rounds"`
	// RoundCharge is the total cost-model charge, including routed
	// detours (>= Rounds; an all-faulted round still burns one step).
	RoundCharge int `json:"roundCharge"`
	// Draws and Applied count q draws and the compare-exchanges that
	// survived matching and fault thinning.
	Draws   int `json:"draws"`
	Applied int `json:"applied"`
	// Routed counts realized rounds that needed multi-hop routing
	// (snake steps on non-Hamiltonian factors, dead-link detours).
	Routed int `json:"routed"`
	// Checks counts termination checks; SamplePasses how many passed
	// the sampled gate; VerifyRuns/VerifyVectors the verifier work.
	Checks        int    `json:"checks"`
	SamplePasses  int    `json:"samplePasses"`
	VerifyRuns    int    `json:"verifyRuns"`
	VerifyVectors uint64 `json:"verifyVectors"`
	// VerifierAccepted is true when the final verifier run certified
	// the realized comparator sequence over its 0-1 sample.
	VerifierAccepted bool `json:"verifierAccepted"`
	// ScrubSorted is the final deterministic full-snake scrub verdict.
	ScrubSorted bool `json:"scrubSorted"`
	// Converged is true when the run terminated by acceptance rather
	// than the round cap.
	Converged bool `json:"converged"`
	// Faults snapshots the plan's counters after the run (zero when no
	// plan was configured).
	Faults faults.Counters `json:"faults"`
}

// Engine is a reusable randomized sorter bound to one network and
// config. An Engine is not safe for concurrent Sort calls (it owns a
// per-round scratch matching buffer).
type Engine struct {
	net     *product.Network
	pricing *product.Network // surviving product when links are dead
	cfg     Config
	pool    []candidate
	cum     []float64
	total   float64
	cost    *simnet.CostModel
	used    []int // node -> last round it was matched in

	mRounds, mDraws, mApplied *obs.Counter
	mChecks, mVerifyRuns      *obs.Counter
	mVerifyVectors            *obs.Counter
	hConverge                 *obs.Histogram
}

// Name returns the engine name including the q variant, e.g.
// "randsort-snake-biased".
func (e *Engine) Name() string { return EngineName + "-" + e.cfg.Variant.String() }

// Pool returns the candidate pool size (after dead-link removal).
func (e *Engine) Pool() int { return len(e.pool) }

// New validates cfg, binds the fault plan's dead links, and builds the
// candidate pool and sampler for net.
func New(net *product.Network, cfg Config) (*Engine, error) {
	if net == nil {
		return nil, &ConfigError{Field: "Net", Reason: "nil network"}
	}
	if cfg.Variant > QSnakeBiased {
		return nil, &ConfigError{Field: "Variant", Reason: fmt.Sprintf("unknown variant %d", cfg.Variant)}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MaxRounds", cfg.MaxRounds},
		{"CheckEvery", cfg.CheckEvery},
		{"DrawsPerRound", cfg.DrawsPerRound},
		{"SamplePairs", cfg.SamplePairs},
		{"VerifyVectors", cfg.VerifyVectors},
	} {
		if f.v < 0 {
			return nil, &ConfigError{Field: f.name, Reason: fmt.Sprintf("negative value %d", f.v)}
		}
	}
	n := net.Nodes()
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRoundsPerNode * n
	}
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = DefaultCheckEvery
	}
	if cfg.DrawsPerRound == 0 {
		cfg.DrawsPerRound = n
	}
	if cfg.SamplePairs == 0 {
		cfg.SamplePairs = DefaultSamplePairs
	}
	if cfg.VerifyVectors == 0 {
		cfg.VerifyVectors = DefaultVerifyVectors
	}

	pricing := net
	if cfg.Faults != nil {
		dead := false
		factors := make([]*graph.Graph, net.R())
		for dim := 1; dim <= net.R(); dim++ {
			if _, err := cfg.Faults.BindFactor(dim, net.FactorAt(dim)); err != nil {
				return nil, fmt.Errorf("randsort: bind fault plan: %w", err)
			}
			factors[dim-1] = net.FactorAt(dim)
			if g := cfg.Faults.SurvivingGraph(dim); g != nil {
				factors[dim-1] = g
				dead = true
			}
		}
		if dead {
			var err error
			pricing, err = product.NewHetero(factors)
			if err != nil {
				return nil, fmt.Errorf("randsort: degraded pricing network: %w", err)
			}
		}
	}

	e := &Engine{
		net:     net,
		pricing: pricing,
		cfg:     cfg,
		pool:    buildPool(net, cfg.Faults),
		cost:    simnet.NewCostModel(),
		used:    make([]int, n),
	}
	e.cum, e.total = weights(cfg.Variant, e.pool)
	if len(e.pool) == 0 || e.total <= 0 {
		return nil, &ConfigError{Field: "Faults", Reason: "fault plan leaves an empty candidate pool"}
	}
	for i := range e.used {
		e.used[i] = -1
	}
	if m := cfg.Metrics; m != nil {
		e.mRounds = m.Counter("randsort.rounds")
		e.mDraws = m.Counter("randsort.draws")
		e.mApplied = m.Counter("randsort.applied")
		e.mChecks = m.Counter("randsort.checks")
		e.mVerifyRuns = m.Counter("randsort.verify.runs")
		e.mVerifyVectors = m.Counter("randsort.verify.vectors")
		e.hConverge = m.Histogram("randsort.converge.rounds", obs.ConvergenceBuckets)
	}
	return e, nil
}

// splitmix64 is the finalizer behind the engine's deterministic
// streams (same construction as internal/faults).
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// stream is a per-(seed, tag, round) deterministic random stream.
type stream uint64

// Stream tags; distinct constants decorrelate the streams.
const (
	tagDraw   uint64 = 0x9D2A77B1
	tagSample uint64 = 0x5A0C3E19
)

func newStream(seed int64, tag uint64, round int) stream {
	return stream(splitmix64(uint64(seed)^(tag*0xA24BAED4963EE407)) ^ splitmix64(uint64(round)+tag))
}

func (s *stream) next() uint64 {
	*s = stream(uint64(*s) + 0x9E3779B97F4A7C15)
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (s *stream) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Sort runs the randomized process over keys (indexed by node id,
// sorted in place into snake order) and reports convergence stats.
// On ErrRoundCap the report is still meaningful: it describes how far
// the degraded run got. Any other error is a verifier failure.
func (e *Engine) Sort(keys []simnet.Key) (*Report, error) {
	n := e.net.Nodes()
	if len(keys) != n {
		return nil, fmt.Errorf("randsort: %d keys for %d nodes", len(keys), n)
	}
	rep := &Report{Variant: e.cfg.Variant.String()}
	defer e.observe(rep)

	plan := e.cfg.Faults
	var delta faults.Counters
	// realized keeps the whole run's comparator sequence for the
	// verifier.
	var realized []schedule.Op

	for i := range e.used {
		e.used[i] = -1
	}
	// Verifier backoff: certification walks the whole realized
	// sequence, so running it at every passing check would cost
	// O(rounds²/CheckEvery) on heavily degraded runs. Rejections push
	// the next attempt out geometrically (~25% of the rounds so far),
	// bounding verifier work at O(log rounds) runs while delaying
	// acceptance by at most that same fraction. The cheap sampled gate
	// keeps running at every check.
	nextVerify := 0
	for round := 0; round < e.cfg.MaxRounds; round++ {
		rep.Rounds++
		kept := e.drawRound(round, &delta, rep)
		if len(kept) > 0 {
			cost, dim := e.cost.PhaseCost(e.pricing, kept)
			kind := schedule.OpCompareExchange
			if cost > 1 {
				kind = schedule.OpRoutedExchange
				rep.Routed++
			}
			op := schedule.Op{Kind: kind, Pairs: kept, Cost: cost, Dim: dim}
			e.exchange(keys, op, len(realized))
			realized = append(realized, op)
			rep.RoundCharge += cost
			rep.Applied += len(kept)
		} else {
			// A fully thinned round still burns a synchronous step:
			// faults cost time, never correctness.
			rep.RoundCharge++
		}
		if plan != nil {
			if node, mask, ok := plan.Corruption(0, round, n); ok {
				// Corrupt the live key state, not the comparator
				// stream.
				keys[node] ^= mask
				delta.Corrupted++
				delta.Injected++
			}
		}
		if (round+1)%e.cfg.CheckEvery != 0 {
			continue
		}
		rep.Checks++
		if !e.sampleSorted(keys, round) {
			continue
		}
		rep.SamplePasses++
		if round < nextVerify {
			continue
		}
		ok, err := e.verify(realized, rep, round)
		if err != nil {
			return rep, err
		}
		if !ok {
			nextVerify = round + round/4 + e.cfg.CheckEvery
			continue
		}
		rep.VerifierAccepted = true
		if !snakeSorted(e.net, keys) {
			// The realized comparators certify but the live state
			// disagrees (a corruption landed after the last exchange
			// touching that node): keep sorting.
			rep.VerifierAccepted = false
			continue
		}
		rep.ScrubSorted = true
		rep.Converged = true
		break
	}
	if plan != nil {
		plan.Add(delta)
		rep.Faults = plan.Counters()
	}
	if !rep.Converged {
		// Report the degraded final state honestly.
		rep.ScrubSorted = snakeSorted(e.net, keys)
		return rep, ErrRoundCap
	}
	return rep, nil
}

// exchange applies one realized round to keys, traced under its index
// in the realized sequence when a tracer is attached.
func (e *Engine) exchange(keys []simnet.Key, op schedule.Op, index int) {
	t := e.cfg.Tracer
	if t == nil {
		simnet.Exchange(keys, op.Pairs)
		return
	}
	ev := obs.Phase{Index: index, Kind: obs.PhaseExchange, Cost: op.Cost, Pairs: len(op.Pairs)}
	if op.Kind == schedule.OpRoutedExchange {
		ev.Kind = obs.PhaseRouted
	}
	t.PhaseBegin(ev)
	simnet.Exchange(keys, op.Pairs)
	t.PhaseEnd(ev)
}

// drawRound draws DrawsPerRound candidates, drops draws whose
// endpoints are already matched this round, applies fault thinning
// (stalled endpoints, dropped pairs), and returns the surviving
// node-disjoint matching.
func (e *Engine) drawRound(round int, delta *faults.Counters, rep *Report) [][2]int {
	st := newStream(e.cfg.Seed, tagDraw, round)
	plan := e.cfg.Faults
	var kept [][2]int
	for t := 0; t < e.cfg.DrawsPerRound; t++ {
		rep.Draws++
		r := st.float() * e.total
		idx := sort.SearchFloat64s(e.cum, r)
		if idx >= len(e.pool) {
			idx = len(e.pool) - 1
		}
		c := e.pool[idx]
		if e.used[c.lo] == round || e.used[c.hi] == round {
			continue
		}
		if plan != nil {
			if plan.NodeStalled(0, round, c.lo) || plan.NodeStalled(0, round, c.hi) {
				delta.Stalled++
				delta.Injected++
				continue
			}
			if plan.PairDropped(0, round, c.lo, c.hi) {
				delta.Dropped++
				delta.Injected++
				continue
			}
		}
		e.used[c.lo], e.used[c.hi] = round, round
		kept = append(kept, [2]int{c.lo, c.hi})
	}
	return kept
}

// sampleSorted probes SamplePairs random snake-adjacent positions; any
// inversion fails the gate. A pass is only probabilistic evidence —
// the verifier and the final scrub stand behind it.
func (e *Engine) sampleSorted(keys []simnet.Key, round int) bool {
	if len(keys) < 2 {
		return true
	}
	st := newStream(e.cfg.Seed, tagSample, round)
	for t := 0; t < e.cfg.SamplePairs; t++ {
		pos := int(st.next() % uint64(len(keys)-1))
		if keys[e.net.NodeAtSnake(pos)] > keys[e.net.NodeAtSnake(pos+1)] {
			return false
		}
	}
	return true
}

// verify runs the cert sampled fallback over the realized comparator
// sequence: by the 0-1 principle the realized ops sort every input iff
// they sort every 0-1 vector, so a seeded sample that finds no
// counterexample is probabilistic certification of this realization.
func (e *Engine) verify(realized []schedule.Op, rep *Report, round int) (bool, error) {
	if len(realized) == 0 {
		// Nothing was realized yet (every draw faulted away); there is
		// no comparator sequence to certify, and the deterministic
		// scrub that follows acceptance settles sortedness on its own.
		return true, nil
	}
	prog, err := schedule.NewProgram(e.net, e.Name(), realized)
	if err != nil {
		return false, fmt.Errorf("randsort: verifier program: %w", err)
	}
	// A failing run counts the words up to and including the one that
	// holds the smallest failing vector, so the vectors counted into the
	// report are a function of the seed at any worker count.
	res, err := cert.Sampled(prog, cert.Options{
		SampleVectors: e.cfg.VerifyVectors,
		Seed:          e.cfg.Seed ^ int64(round),
	})
	if err != nil {
		return false, fmt.Errorf("randsort: verifier: %w", err)
	}
	rep.VerifyRuns++
	rep.VerifyVectors += res.Vectors
	return res.Certified, nil
}

// observe feeds the run's stats into the configured metrics registry.
func (e *Engine) observe(rep *Report) {
	if e.cfg.Metrics == nil {
		return
	}
	e.mRounds.Add(int64(rep.Rounds))
	e.mDraws.Add(int64(rep.Draws))
	e.mApplied.Add(int64(rep.Applied))
	e.mChecks.Add(int64(rep.Checks))
	e.mVerifyRuns.Add(int64(rep.VerifyRuns))
	e.mVerifyVectors.Add(int64(rep.VerifyVectors))
	if rep.Converged {
		e.hConverge.Observe(int64(rep.Rounds))
	}
}

// snakeSorted reports whether keys are nondecreasing in snake order —
// the deterministic full scrub behind the probabilistic checks.
func snakeSorted(net *product.Network, keys []simnet.Key) bool {
	for pos := 1; pos < len(keys); pos++ {
		if keys[net.NodeAtSnake(pos-1)] > keys[net.NodeAtSnake(pos)] {
			return false
		}
	}
	return true
}
