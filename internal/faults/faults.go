// Package faults is the deterministic fault-injection subsystem: a
// seeded Plan decides — purely as a function of (seed, epoch, phase,
// coordinates) — which links are dead, which messages are dropped or
// duplicated, which nodes stall, and which keys suffer bit flips. No
// mutable RNG state is consumed by decisions, so the same plan yields
// the same fault realization regardless of evaluation order or
// goroutine scheduling: the schedule-level resilient replay
// (schedule.ResilientBackend) and the message-passing engine (spmd)
// observe one coherent fault world per seed.
//
// The paper's cost model assumes a perfectly synchronous, failure-free
// machine; this package is where that assumption is deliberately
// broken, so the recovery layers can be charged honestly in the same
// round units (extra recovery rounds accrue on the clock, see
// schedule.ResilientBackend).
package faults

import (
	"fmt"
	"sync"

	"productsort/internal/graph"
	"productsort/internal/routing"
)

// Key mirrors simnet.Key (int64) without importing simnet, because
// simnet imports this package (its Clock carries Counters).
type Key = int64

// FactorEdge names one factor-graph edge of a product network:
// dimension dim (1-based), factor endpoints U and V.
type FactorEdge struct {
	Dim, U, V int
}

// Config parameterizes a fault plan. All rates are probabilities in
// [0, 1]; the zero Config injects nothing (Quiet reports true).
type Config struct {
	// Seed drives every decision. Two plans with equal configs are
	// indistinguishable.
	Seed int64
	// DropRate is, per compare-exchange pair per phase (schedule level)
	// or per message hop (spmd message level), the probability the
	// exchange's key transfer is lost.
	DropRate float64
	// StallRate is, per (phase, node), the probability the node misses
	// the phase (its pair does not commit; in the message engine it
	// skips one forwarding round).
	StallRate float64
	// CorruptRate is, per phase, the probability that one key — at a
	// seed-chosen node — suffers a single bit flip.
	CorruptRate float64
	// DupRate is, per message hop (spmd message level only), the
	// probability a relayed message is duplicated in flight.
	DupRate float64
	// LinkFailRate is, per factor edge per dimension, the probability
	// the link is permanently dead for the whole computation. Edges
	// whose removal would disconnect the factor are spared, so routing
	// around the surviving graph always remains possible.
	LinkFailRate float64
	// MaxDeadLinks caps the rate-chosen dead links per dimension;
	// 0 means no cap. Forced DeadLinks do not count against the cap.
	MaxDeadLinks int
	// DeadLinks lists factor edges that are unconditionally dead
	// (deterministic chaos scenarios and tests).
	DeadLinks []FactorEdge
}

// Quiet reports whether the config injects no faults at all, letting
// callers keep the fault-free hot path untouched.
func (c Config) Quiet() bool {
	return c.DropRate == 0 && c.StallRate == 0 && c.CorruptRate == 0 &&
		c.DupRate == 0 && c.LinkFailRate == 0 && len(c.DeadLinks) == 0
}

// Counters aggregates fault-injection and recovery events. Injection
// counters are maintained by whichever layer realizes the fault;
// recovery counters by the resilient replay. The struct is comparable,
// so tests can assert deterministic recovery with ==.
type Counters struct {
	// Injected totals every injected fault event (drops, stalls,
	// corruptions, duplicates, dead links).
	Injected int
	// Dropped counts lost key transfers (pair exchanges at schedule
	// level, message copies at spmd level).
	Dropped int
	// Stalled counts phase participations lost to stalled nodes.
	Stalled int
	// Corrupted counts injected key bit flips.
	Corrupted int
	// Duplicated counts in-flight message duplications.
	Duplicated int
	// DeadLinks counts permanently failed factor edges.
	DeadLinks int
	// Detected counts scrub detections (checksum or sortedness).
	Detected int
	// Retried counts checkpoint-window retries and message
	// retransmissions.
	Retried int
	// RepairPasses counts full-program scrub-and-repair replays.
	RepairPasses int
	// Rerouted counts exchanges or message hops that had to route
	// around a dead link.
	Rerouted int
	// Unrecoverable counts faults that exhausted their retry budget.
	Unrecoverable int
}

// add accumulates d into c.
func (c *Counters) add(d Counters) {
	c.Injected += d.Injected
	c.Dropped += d.Dropped
	c.Stalled += d.Stalled
	c.Corrupted += d.Corrupted
	c.Duplicated += d.Duplicated
	c.DeadLinks += d.DeadLinks
	c.Detected += d.Detected
	c.Retried += d.Retried
	c.RepairPasses += d.RepairPasses
	c.Rerouted += d.Rerouted
	c.Unrecoverable += d.Unrecoverable
}

// Plan is a bound fault plan: pure decision functions over the config
// seed plus counters and per-dimension dead-link state. Decision
// methods are safe for concurrent use; Add and BindFactor serialize on
// an internal mutex.
type Plan struct {
	cfg Config

	mu       sync.Mutex
	counters Counters
	dims     map[int]*dimState
}

// dimState is the dead-link state of one dimension.
type dimState struct {
	g       *graph.Graph
	dead    map[[2]int]bool
	survive *graph.Graph  // nil when no links died
	plan    *routing.Plan // forwarding on the surviving graph
}

// NewPlan binds a config into a plan with zeroed counters.
func NewPlan(cfg Config) *Plan {
	return &Plan{cfg: cfg, dims: make(map[int]*dimState)}
}

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// Add merges a counter delta into the plan (concurrency-safe).
func (p *Plan) Add(d Counters) {
	p.mu.Lock()
	p.counters.add(d)
	p.mu.Unlock()
}

// Counters returns a snapshot of the accumulated counters.
func (p *Plan) Counters() Counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters
}

// Domain-separation tags keep independent fault classes from sharing
// hash streams.
const (
	tagPairDrop uint64 = 1 + iota
	tagStall
	tagStallRound
	tagCorrupt
	tagCorruptWhere
	tagMsgDrop
	tagMsgDup
	tagLink
)

// splitmix64 is the finalizer of the SplitMix64 generator: a strong
// 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mix folds the seed and the given coordinates into one hash value.
func (p *Plan) mix(parts ...uint64) uint64 {
	x := splitmix64(uint64(p.cfg.Seed) ^ 0x6a09e667f3bcc908)
	for _, part := range parts {
		x = splitmix64(x ^ part)
	}
	return x
}

// roll maps a hash to uniform [0, 1).
func (p *Plan) roll(parts ...uint64) float64 {
	return float64(p.mix(parts...)>>11) / (1 << 53)
}

// PairDropped reports whether the compare-exchange of (lo, hi) at the
// given (epoch, phase) loses its key transfer.
func (p *Plan) PairDropped(epoch, phase, lo, hi int) bool {
	if p.cfg.DropRate <= 0 {
		return false
	}
	return p.roll(tagPairDrop, uint64(epoch), uint64(phase), uint64(lo), uint64(hi)) < p.cfg.DropRate
}

// NodeStalled reports whether node misses the given (epoch, phase).
func (p *Plan) NodeStalled(epoch, phase, node int) bool {
	if p.cfg.StallRate <= 0 {
		return false
	}
	return p.roll(tagStall, uint64(epoch), uint64(phase), uint64(node)) < p.cfg.StallRate
}

// NodeStalledRound reports whether node skips one forwarding round of
// the message engine (keyed by round so a stalled node recovers on a
// later round rather than deadlocking).
func (p *Plan) NodeStalledRound(phase, round, node int) bool {
	if p.cfg.StallRate <= 0 {
		return false
	}
	return p.roll(tagStallRound, uint64(phase), uint64(round), uint64(node)) < p.cfg.StallRate
}

// Corruption decides whether the given (epoch, phase) corrupts a key:
// when it fires it returns the afflicted node (uniform over nodes) and
// a single-bit XOR mask.
func (p *Plan) Corruption(epoch, phase, nodes int) (node int, mask Key, ok bool) {
	if p.cfg.CorruptRate <= 0 || nodes <= 0 {
		return 0, 0, false
	}
	if p.roll(tagCorrupt, uint64(epoch), uint64(phase)) >= p.cfg.CorruptRate {
		return 0, 0, false
	}
	h := p.mix(tagCorruptWhere, uint64(epoch), uint64(phase))
	node = int(h % uint64(nodes))
	bit := (h >> 33) % 63
	return node, Key(1) << bit, true
}

// MessageDropped reports whether a message from origin to dst is lost
// on its hop-th hop of the given attempt (spmd message level). Keying
// by the message's own path coordinates — never by which round the
// scheduler happened to deliver it in — keeps the realization
// deterministic under arbitrary goroutine interleavings.
func (p *Plan) MessageDropped(phase, attempt, origin, dst, hop int) bool {
	if p.cfg.DropRate <= 0 {
		return false
	}
	return p.roll(tagMsgDrop, uint64(phase), uint64(attempt), uint64(origin), uint64(dst), uint64(hop)) < p.cfg.DropRate
}

// MessageDuplicated reports whether a message from origin to dst is
// duplicated on its hop-th hop of the given attempt.
func (p *Plan) MessageDuplicated(phase, attempt, origin, dst, hop int) bool {
	if p.cfg.DupRate <= 0 {
		return false
	}
	return p.roll(tagMsgDup, uint64(phase), uint64(attempt), uint64(origin), uint64(dst), uint64(hop)) < p.cfg.DupRate
}

// BindFactor registers dimension dim's factor graph and decides its
// dead links: forced DeadLinks for the dimension plus rate-chosen
// edges, in deterministic edge order. Edges whose removal would
// disconnect the current surviving graph are spared (forced ones are an
// error — the caller explicitly demanded the impossible), so the
// surviving factor always stays connected and reroutable. Returns the
// dead edges. Binding the same dimension twice returns the first
// decision.
func (p *Plan) BindFactor(dim int, g *graph.Graph) ([][2]int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.dims[dim]; ok {
		return deadList(st.dead), nil
	}
	st := &dimState{g: g, dead: make(map[[2]int]bool)}
	alive := make(map[[2]int]bool, len(g.Edges()))
	for _, e := range g.Edges() {
		alive[normEdge(e[0], e[1])] = true
	}
	kill := func(u, v int, forced bool) error {
		e := normEdge(u, v)
		if !alive[e] {
			if forced {
				return fmt.Errorf("faults: dead link dim %d (%d,%d) is not an edge of %s", dim, u, v, g.Name())
			}
			return nil
		}
		delete(alive, e)
		if !connectedUnder(g, alive) {
			alive[e] = true // spare: removal would disconnect the factor
			if forced {
				return fmt.Errorf("faults: dead link dim %d (%d,%d) would disconnect %s", dim, u, v, g.Name())
			}
			return nil
		}
		st.dead[e] = true
		return nil
	}
	for _, fe := range p.cfg.DeadLinks {
		if fe.Dim != dim {
			continue
		}
		if err := kill(fe.U, fe.V, true); err != nil {
			return nil, err
		}
	}
	if p.cfg.LinkFailRate > 0 {
		for _, e := range g.Edges() {
			if p.cfg.MaxDeadLinks > 0 && len(st.dead) >= p.cfg.MaxDeadLinks {
				break
			}
			if p.roll(tagLink, uint64(dim), uint64(e[0]), uint64(e[1])) < p.cfg.LinkFailRate {
				if err := kill(e[0], e[1], false); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(st.dead) > 0 {
		edges := make([][2]int, 0, len(alive))
		for _, e := range g.Edges() {
			if alive[normEdge(e[0], e[1])] {
				edges = append(edges, e)
			}
		}
		sg, err := graph.New(fmt.Sprintf("%s-degraded", g.Name()), g.N(), edges)
		if err != nil {
			return nil, fmt.Errorf("faults: surviving graph of dim %d: %w", dim, err)
		}
		st.survive = sg
		st.plan = routing.NewPlan(sg)
		p.counters.add(Counters{Injected: len(st.dead), DeadLinks: len(st.dead)})
	}
	p.dims[dim] = st
	return deadList(st.dead), nil
}

// LinkDead reports whether the dimension-dim factor edge (u, v) is
// dead. Dimensions must have been bound first.
func (p *Plan) LinkDead(dim, u, v int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.dims[dim]
	return st != nil && st.dead[normEdge(u, v)]
}

// SurvivingGraph returns dimension dim's factor graph with dead links
// removed, or nil when the dimension is intact (or unbound).
func (p *Plan) SurvivingGraph(dim int) *graph.Graph {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.dims[dim]; st != nil {
		return st.survive
	}
	return nil
}

// SurvivingPlan returns the BFS forwarding plan on dimension dim's
// surviving factor graph, or nil when the dimension is intact. The
// plan's NextHop tables route strictly over surviving edges.
func (p *Plan) SurvivingPlan(dim int) *routing.Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.dims[dim]; st != nil {
		return st.plan
	}
	return nil
}

// normEdge orders an undirected edge canonically.
func normEdge(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// deadList flattens a dead-edge set into sorted-insertion order (the
// map is small; order normalized by re-sorting the canonical pairs).
func deadList(dead map[[2]int]bool) [][2]int {
	out := make([][2]int, 0, len(dead))
	for e := range dead {
		out = append(out, e)
	}
	// Deterministic order for callers that log or assert on the list.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func less(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// connectedUnder reports whether g restricted to the alive edge set is
// connected (BFS from node 0).
func connectedUnder(g *graph.Graph, alive map[[2]int]bool) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	seen[0] = true
	queue = append(queue, 0)
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if !seen[w] && alive[normEdge(v, w)] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == n
}
