// ResilientBackend: self-healing schedule replay. It replays a program
// under deterministic fault injection with the recovery machinery that
// survives it: checkpoint every K phases, checksum-scrub each window,
// retry faulted windows from the checkpoint under a fresh fault epoch,
// halve the window when retries keep failing (exponential backoff that
// isolates the corrupting phase), wait out stalls and retransmit drops
// at their measured round cost, re-price the whole program on the
// surviving network when links are dead, and finish with a sortedness
// scrub backed by bounded full-program repair passes (the schedule is
// oblivious, so re-running it is always safe).
//
// The schedule is oblivious, so a faulted phase needs no new program:
// its lost pairs are skipped, its surviving pairs are exchanged in
// place, and its corruption mask is applied to the key array right
// after it. Every decision is a pure function of (plan seed, epoch,
// exchange ordinal, coordinates), so two runs with the same plan produce
// byte-identical keys and identical recovery counters, and ops that move
// no key leave the draws alone.

package schedule

import (
	"errors"
	"fmt"

	"productsort/internal/faults"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// ErrUnrecoverable reports that recovery was exhausted: either a key
// corruption survived every window retry (the data itself is wrong —
// no amount of re-sorting can restore a flipped bit), or the repair
// pass budget ran out before the output scrubbed sorted. The returned
// clock still carries the full fault and recovery accounting.
var ErrUnrecoverable = errors.New("schedule: fault recovery exhausted")

// ErrQuietPlan rejects a resilient replay whose plan is nil or injects
// nothing. A fault-free replay is the executed stream's job: root
// SortResilient sends a quiet FaultConfig to CompiledNetwork.Sort.
var ErrQuietPlan = errors.New("schedule: resilient replay needs a plan that injects faults")

// pairAttempts bounds stall-waits and retransmissions per pair before
// the exchange is abandoned for the phase (mirrors the SPMD engine's
// message retry bound).
const pairAttempts = 8

// ResilientBackend replays a program under deterministic fault
// injection and heals it. The zero value of each knob selects its
// default.
type ResilientBackend struct {
	// Plan decides the faults. Run rejects a nil or quiet plan with
	// ErrQuietPlan.
	Plan *faults.Plan
	// CheckpointEvery is K, the number of exchange phases per
	// checkpoint window; <1 means 16. Small K detects corruption
	// sooner but copies keys more often (see THEORY.md for the
	// overhead bound).
	CheckpointEvery int
	// MaxRetries is the number of full-window retries before the
	// window is halved; <1 means 3.
	MaxRetries int
	// MaxRepairPasses bounds the full-program repair replays after the
	// final sortedness scrub; <1 means 3.
	MaxRepairPasses int
	// Tracer receives a phase event pair per executed exchange phase,
	// indexed by the program's own op index (so it matches the Phase
	// of the recovery events), and typed recovery events: checkpoint
	// snapshots, scrub detections, window retries and halvings, stall
	// waits, retransmissions, repair passes and unrecoverable give-ups.
	// Recovery event multiplicities mirror the fault plan's counters
	// one-for-one (asserted by TestChaosEventsMatchFaultReport), and the
	// Rounds carried by all recovery events sum to the clock's
	// RecoveryRounds. nil disables tracing.
	Tracer obs.Tracer
}

// Run replays prog over keys (indexed by node id) under the fault
// plan, healing what it can, and returns the clock with Rounds
// inflated by the measured recovery cost (split out in RecoveryRounds)
// and the plan's counters attached. A nil or quiet plan is rejected
// with ErrQuietPlan before any key moves.
func (rb ResilientBackend) Run(prog *Program, keys []simnet.Key) (simnet.Clock, error) {
	if rb.Plan == nil || rb.Plan.Config().Quiet() {
		return simnet.Clock{}, ErrQuietPlan
	}
	if len(keys) != prog.net.Nodes() {
		return simnet.Clock{}, fmt.Errorf("schedule: %d keys for %d nodes", len(keys), prog.net.Nodes())
	}
	priced, rerouted, err := degradeProgram(prog, rb.Plan)
	if err != nil {
		return simnet.Clock{}, err
	}
	if rerouted > 0 {
		rb.Plan.Add(faults.Counters{Rerouted: rerouted})
	}
	r := &resilientRun{
		prog:       priced,
		plan:       rb.Plan,
		keys:       keys,
		sum0:       faults.ChecksumKeys(keys),
		k:          rb.CheckpointEvery,
		maxRetries: rb.MaxRetries,
		tracer:     rb.Tracer,
	}
	if r.k < 1 {
		r.k = 16
	}
	if r.maxRetries < 1 {
		r.maxRetries = 3
	}
	maxRepair := rb.MaxRepairPasses
	if maxRepair < 1 {
		maxRepair = 3
	}
	inS2 := false
	for i := range priced.ops {
		switch priced.ops[i].Kind {
		case OpBeginS2:
			inS2 = true
		case OpEndS2:
			inS2 = false
		case OpCompareExchange, OpRoutedExchange:
			r.ex = append(r.ex, i)
			r.exS2 = append(r.exS2, inS2)
		}
	}
	r.runAll(true)
	// Final scrub: the multiset checksum cannot see a silently skipped
	// exchange, but the snake order can. Sorting is idempotent over
	// this schedule, so a repair pass is just another (fresh-epoch)
	// replay charged entirely to recovery.
	for pass := 0; !snakeSorted(priced.net, keys); pass++ {
		if pass >= maxRepair {
			r.plan.Add(faults.Counters{Unrecoverable: 1})
			r.trace(obs.Recovery{Kind: obs.RecoveryUnrecoverable, Lo: -1, Hi: -1, Phase: -1})
			return r.finalClock(), ErrUnrecoverable
		}
		r.plan.Add(faults.Counters{Detected: 1, RepairPasses: 1})
		r.trace(obs.Recovery{Kind: obs.RecoveryScrubDetect, Lo: -1, Hi: -1, Phase: -1})
		r.trace(obs.Recovery{Kind: obs.RecoveryRepairPass, Lo: -1, Hi: -1, Phase: -1})
		r.epoch++
		r.runAll(false)
	}
	clk := r.finalClock()
	if r.corrupted {
		return clk, ErrUnrecoverable
	}
	return clk, nil
}

// resilientRun is the mutable state of one resilient replay.
type resilientRun struct {
	prog *Program
	plan *faults.Plan
	keys []simnet.Key
	ex   []int           // indices of exchange ops in prog.ops
	exS2 []bool          // S2 attribution per exchange op (for traces)
	sum0 faults.Checksum // multiset digest scrubbed against

	k          int // checkpoint window size (exchange phases)
	maxRetries int // full-window retries before halving

	epoch          int // bumped per retry/repair: re-rolls every decision
	recoveryRounds int
	corrupted      bool       // an accepted (unhealable) corruption happened
	kept           [][2]int   // scratch: one phase's surviving pairs
	tracer         obs.Tracer // nil = tracing disabled
}

// trace emits a recovery event when a tracer is attached.
func (r *resilientRun) trace(ev obs.Recovery) {
	if r.tracer != nil {
		r.tracer.RecoveryEvent(ev)
	}
}

// runAll replays every window in order. free marks the first execution
// of each window as already paid for by the program's base clock;
// repair passes set it false so their full cost lands on recovery.
func (r *resilientRun) runAll(free bool) {
	for w := 0; w < len(r.ex); w += r.k {
		r.window(w, min(w+r.k, len(r.ex)), free)
	}
}

// window replays exchange ops ex[lo:hi] under checksum scrubbing:
// checkpoint, execute, scrub; on corruption restore and retry under a
// fresh epoch; after maxRetries halve the window (exponential backoff —
// each level pins the corruption to half as many phases); a single
// phase that never comes clean is accepted as unrecoverable and the
// scrub baseline rebased so later windows still scrub meaningfully.
func (r *resilientRun) window(lo, hi int, free bool) {
	cost := r.windowCost(lo, hi)
	checkpoint := append([]simnet.Key(nil), r.keys...)
	r.trace(obs.Recovery{Kind: obs.RecoveryCheckpoint, Lo: lo, Hi: hi, Phase: -1})
	for attempt := 0; attempt <= r.maxRetries; attempt++ {
		if !free || attempt > 0 {
			r.recoveryRounds += cost
			r.trace(obs.Recovery{Kind: obs.RecoveryReplay, Lo: lo, Hi: hi, Phase: -1, Rounds: cost})
		}
		r.execute(lo, hi)
		if faults.ChecksumKeys(r.keys) == r.sum0 {
			return
		}
		r.plan.Add(faults.Counters{Detected: 1, Retried: 1})
		r.trace(obs.Recovery{Kind: obs.RecoveryScrubDetect, Lo: lo, Hi: hi, Phase: -1})
		r.trace(obs.Recovery{Kind: obs.RecoveryRetry, Lo: lo, Hi: hi, Phase: -1})
		copy(r.keys, checkpoint)
		r.epoch++
	}
	if hi-lo <= 1 {
		// The corrupting phase is isolated and will not heal: run it
		// one last time and carry the corruption forward, counted.
		r.recoveryRounds += cost
		r.trace(obs.Recovery{Kind: obs.RecoveryReplay, Lo: lo, Hi: hi, Phase: -1, Rounds: cost})
		r.execute(lo, hi)
		if sum := faults.ChecksumKeys(r.keys); sum != r.sum0 {
			r.plan.Add(faults.Counters{Detected: 1, Unrecoverable: 1})
			r.trace(obs.Recovery{Kind: obs.RecoveryScrubDetect, Lo: lo, Hi: hi, Phase: -1})
			r.trace(obs.Recovery{Kind: obs.RecoveryUnrecoverable, Lo: lo, Hi: hi, Phase: -1})
			r.corrupted = true
			r.sum0 = sum
		}
		return
	}
	mid := lo + (hi-lo)/2
	r.trace(obs.Recovery{Kind: obs.RecoveryHalve, Lo: lo, Hi: hi, Phase: -1})
	r.window(lo, mid, false)
	r.window(mid, hi, false)
}

// windowCost sums the priced round charges of exchange ops ex[lo:hi].
func (r *resilientRun) windowCost(lo, hi int) int {
	cost := 0
	for w := lo; w < hi; w++ {
		cost += r.prog.ops[r.ex[w]].Cost
	}
	return cost
}

// execute runs exchange ops ex[lo:hi] once under the current epoch:
// stalled endpoints are waited out (a recovery round per stalled
// round), dropped exchanges are retransmitted (a recovery round per
// attempt, bounded), surviving pairs are exchanged in place, and
// per-phase corruption is applied to the key array right after its
// phase so it propagates through later phases exactly as a live
// flipped bit would. Pairs within a phase recover in parallel, so a
// phase's recovery charge is the worst pair's, not the sum. Every fault
// is drawn on the exchange ordinal w, not the op index, so ops that move
// no key (merge markers) do not shift the draws; phase events keep the
// op index.
func (r *resilientRun) execute(lo, hi int) {
	var delta faults.Counters
	for w := lo; w < hi; w++ {
		j := r.ex[w]
		op := &r.prog.ops[j]
		kept := r.kept[:0]
		phaseExtra := 0
		phaseStalls, phaseRetrans, phaseLost := 0, 0, 0
		for _, pr := range op.Pairs {
			a, b := pr[0], pr[1]
			extra := 0
			alive := true
			// Wait out stalled endpoints, one round per stalled round.
			for round := 0; r.plan.NodeStalledRound(w, round, a) || r.plan.NodeStalledRound(w, round, b); round++ {
				delta.Stalled++
				delta.Injected++
				phaseStalls++
				extra++
				if extra >= pairAttempts {
					alive = false
					break
				}
			}
			// Transmit; dropped exchanges retransmit on later rounds.
			// The epoch rides in the hop slot so retried windows
			// re-roll their retransmissions too.
			if alive {
				dropped := r.plan.PairDropped(r.epoch, w, a, b)
				for att := 1; dropped; att++ {
					delta.Dropped++
					delta.Injected++
					if att >= pairAttempts {
						alive = false
						break
					}
					delta.Retried++
					phaseRetrans++
					extra++
					dropped = r.plan.MessageDropped(w, att, a, b, r.epoch)
				}
			}
			if !alive {
				// This exchange is lost for the phase; the final
				// sortedness scrub and repair passes pick it up.
				delta.Unrecoverable++
				phaseLost++
				continue
			}
			if extra > phaseExtra {
				phaseExtra = extra
			}
			kept = append(kept, pr)
		}
		r.recoveryRounds += phaseExtra
		if r.tracer != nil {
			if phaseStalls > 0 {
				r.trace(obs.Recovery{Kind: obs.RecoveryStallWait, Lo: lo, Hi: hi, Phase: j, Count: phaseStalls})
			}
			if phaseRetrans > 0 {
				r.trace(obs.Recovery{Kind: obs.RecoveryRetransmit, Lo: lo, Hi: hi, Phase: j, Count: phaseRetrans})
			}
			if phaseLost > 0 {
				r.trace(obs.Recovery{Kind: obs.RecoveryUnrecoverable, Lo: lo, Hi: hi, Phase: j, Count: phaseLost})
			}
			if phaseExtra > 0 {
				// Pairs recover in parallel: the phase's round charge is
				// the worst pair's wait, carried by one replay event.
				r.trace(obs.Recovery{Kind: obs.RecoveryReplay, Lo: lo, Hi: hi, Phase: j, Rounds: phaseExtra})
			}
		}
		r.kept = kept
		if r.tracer != nil && len(kept) > 0 {
			// The event counts the pairs this attempt exchanged.
			ev := phaseEvent(op, j, r.exS2[w])
			ev.Pairs = len(kept)
			r.tracer.PhaseBegin(ev)
			simnet.Exchange(r.keys, kept)
			r.tracer.PhaseEnd(ev)
		} else {
			simnet.Exchange(r.keys, kept)
		}
		if node, mask, ok := r.plan.Corruption(r.epoch, w, len(r.keys)); ok {
			r.keys[node] ^= simnet.Key(mask)
			delta.Corrupted++
			delta.Injected++
		}
	}
	if delta != (faults.Counters{}) {
		r.plan.Add(delta)
	}
}

// finalClock assembles the replay's clock: the priced base program
// (degraded when links are dead) plus everything recovery cost, with
// the plan's counters attached.
func (r *resilientRun) finalClock() simnet.Clock {
	clk := r.prog.clock
	clk.Rounds += r.recoveryRounds
	clk.RecoveryRounds = r.recoveryRounds
	clk.Faults = r.plan.Counters()
	return clk
}

// degradeProgram binds the plan's dead links against prog's factors
// and, when any link is dead, re-prices every phase on the surviving
// product network by replaying the program into a Builder over it: an
// exchange whose link died becomes a routed exchange at its measured
// detour cost — the graceful degradation to a slower program. Returns
// the priced program (prog itself when no link is dead) and the number
// of pair occurrences forced onto detours.
func degradeProgram(prog *Program, plan *faults.Plan) (*Program, int, error) {
	net := prog.net
	deadTotal := 0
	factors := make([]*graph.Graph, net.R())
	for dim := 1; dim <= net.R(); dim++ {
		dead, err := plan.BindFactor(dim, net.FactorAt(dim))
		if err != nil {
			return nil, 0, err
		}
		deadTotal += len(dead)
		factors[dim-1] = net.FactorAt(dim)
		if sg := plan.SurvivingGraph(dim); sg != nil {
			factors[dim-1] = sg
		}
	}
	if deadTotal == 0 {
		return prog, 0, nil
	}
	surv, err := product.NewHetero(factors)
	if err != nil {
		return nil, 0, fmt.Errorf("schedule: surviving network: %w", err)
	}
	b := NewBuilder(surv)
	ReplayOnMachine(prog, b)
	rerouted := 0
	for i := range prog.ops {
		for _, pr := range prog.ops[i].Pairs {
			if net.Adjacent(pr[0], pr[1]) && !surv.Adjacent(pr[0], pr[1]) {
				rerouted++
			}
		}
	}
	// Execution still targets the original network (the keys are
	// exchanged over surviving routes); only the pricing degrades.
	priced := b.Program(prog.engine, prog.sig+"+degraded")
	priced.net = net
	return priced, rerouted, nil
}

// snakeSorted reports whether keys (indexed by node id) are
// nondecreasing when read in snake order.
func snakeSorted(net *product.Network, keys []simnet.Key) bool {
	prev := keys[net.NodeAtSnake(0)]
	for pos := 1; pos < len(keys); pos++ {
		k := keys[net.NodeAtSnake(pos)]
		if k < prev {
			return false
		}
		prev = k
	}
	return true
}
