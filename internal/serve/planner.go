// Package serve turns compiled networks into a request-driven sorting
// service. A planner maps each requested key count to the cheapest
// covering network. Every candidate, whatever its family, has one
// shape — family, name, nodes, predicted rounds and a program build:
// ProductCandidate prices a product network by Theorem 1's round
// count, and FamilyCandidate, the one catalog of emitted families,
// prices a multiway or periodic network by its column depth. The
// schedule is oblivious, so the plan set is fixed when the server is
// built: it keeps one size bucket per plan the planner can return, and
// each bucket builds its plan's program once, on its first flush. A
// bucket flushes as soon as a worker of the bounded pool is free,
// taking every request that queued while it waited, through the
// columnar batch replay (schedule.RunBatchColumnar: one program walk
// per flush, every set advancing through each comparator together), so
// batches grow only under backpressure. This is Schiller's
// agglomeration argument — merge many independent sorting-network
// invocations into one larger network execution — applied to the
// arrival-driven, multi-tenant setting: requests of heterogeneous sizes
// arrive continuously, are padded with sentinel keys to the plan's node
// count, and are sliced back on reply.
//
// Admission control keeps the service stable under overload: each
// bucket bounds its admitted-but-unreplied requests (QueueDepth) and
// sheds beyond it with the typed ErrQueueFull, request contexts are
// honored until the request is bound into a flush, and Close seals
// admission then drains every admitted request before returning.
package serve

import (
	"errors"
	"fmt"
	"sort"

	"productsort/internal/core"
	"productsort/internal/emit"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

// Candidate is one network offered to the planner, in the one shape
// every family shares: its family and display name, its node count,
// its predicted round count and a constructor for its program.
// ProductCandidate and FamilyCandidate build them.
type Candidate struct {
	// Family names the construction family ("product", "multiway",
	// "periodic") — the serve-plan metadata mixed-family servers expose
	// per reply and per flush counter.
	Family string
	// Name is the display name (bucket metrics, Reply.Network), e.g.
	// "hypercube^4" or "multiway4[16]".
	Name string
	// Nodes is the processor count: requests are padded to it.
	Nodes int
	// Rounds is the predicted parallel round count — Theorem 1's bound
	// for product networks, the emitted column depth for emitted
	// families. It is the cost a request pays regardless of how many
	// batchmates share the flush, hence the ranking key.
	Rounds int
	// Build constructs the program. A server's bucket calls it once, on
	// its first flush.
	Build func() (*schedule.Program, error)
}

// ProductCandidate offers the paper's construction over net with the
// given S_2 engine (nil selects sort2d.Auto), priced by
// core.PredictedRounds. Its program is compiled outside the
// process-wide cache, so a server's bucket programs live and die with
// the server.
func ProductCandidate(net *product.Network, engine sort2d.Engine) Candidate {
	return Candidate{
		Family: emit.FamilyProduct,
		Name:   net.Name(),
		Nodes:  net.Nodes(),
		Rounds: core.PredictedRounds(net, engine),
		Build:  func() (*schedule.Program, error) { return schedule.CompileUncached(net, engine) },
	}
}

// Plan is one ranked candidate.
type Plan struct {
	// Rounds is the candidate's predicted round count, the ranking key.
	Rounds int
	// Family names the candidate's construction family.
	Family string

	name  string
	nodes int
	build func() (*schedule.Program, error)
	idx   int // position in the planner's sorted plans; the server's bucket index
}

// Nodes returns the plan's processor count: requests are padded to it.
func (p *Plan) Nodes() int { return p.nodes }

// Name names the plan's network, e.g. "hypercube^4" or "multiway4[16]".
func (p *Plan) Name() string { return p.name }

// Planner maps a requested key count to the cheapest covering plan.
type Planner struct {
	plans []*Plan // ascending by (Nodes, Rounds, Name)
	best  []*Plan // best[i] = cheapest plan among plans[i:]
}

// NewPlanner ranks candidates drawn from any mix of network families.
// Candidates may overlap in size; the planner picks, for every request
// size, the covering candidate with the fewest predicted rounds,
// breaking ties toward fewer nodes then name — so one server mixes
// families per size bucket wherever an emitted frontier beats the
// product construction.
func NewPlanner(cands []Candidate) (*Planner, error) {
	if len(cands) == 0 {
		return nil, errors.New("serve: planner needs at least one candidate network")
	}
	plans := make([]*Plan, len(cands))
	for i, c := range cands {
		if c.Family == "" || c.Name == "" || c.Nodes < 1 || c.Rounds < 0 || c.Build == nil {
			return nil, fmt.Errorf("serve: candidate %d (%q) incomplete", i, c.Name)
		}
		plans[i] = &Plan{Rounds: c.Rounds, Family: c.Family, name: c.Name, nodes: c.Nodes, build: c.Build}
	}
	sort.Slice(plans, func(i, j int) bool {
		if plans[i].Nodes() != plans[j].Nodes() {
			return plans[i].Nodes() < plans[j].Nodes()
		}
		if plans[i].Rounds != plans[j].Rounds {
			return plans[i].Rounds < plans[j].Rounds
		}
		return plans[i].Name() < plans[j].Name()
	})
	for i := range plans {
		plans[i].idx = i
	}
	best := make([]*Plan, len(plans))
	for i := len(plans) - 1; i >= 0; i-- {
		best[i] = plans[i]
		// Strict <: on equal rounds prefer the earlier plan, which has
		// fewer nodes (less padding, less scratch).
		if i+1 < len(plans) && best[i+1].Rounds < plans[i].Rounds {
			best[i] = best[i+1]
		}
	}
	return &Planner{plans: plans, best: best}, nil
}

// MaxKeys returns the largest admissible request size.
func (pl *Planner) MaxKeys() int { return pl.plans[len(pl.plans)-1].Nodes() }

// Plans returns the ranked candidates, ascending by size.
func (pl *Planner) Plans() []*Plan { return pl.plans }

// For returns the cheapest plan covering n keys.
func (pl *Planner) For(n int) (*Plan, error) {
	if n < 1 {
		return nil, ErrEmpty
	}
	i := sort.Search(len(pl.plans), func(i int) bool { return pl.plans[i].Nodes() >= n })
	if i == len(pl.plans) {
		return nil, fmt.Errorf("%w: %d keys exceed the largest candidate network (%d nodes)",
			ErrTooLarge, n, pl.MaxKeys())
	}
	return pl.best[i], nil
}
