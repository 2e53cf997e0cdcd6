// Package simnet simulates the synchronous parallel machine the paper's
// algorithm runs on: an r-dimensional product network with one key per
// processor, executing lock-step phases of compare-exchange operations.
//
// Time is counted in parallel communication rounds, the unit of all the
// paper's complexity claims. A compare-exchange phase between pairs of
// adjacent nodes costs one round. When the factor graph is not
// Hamiltonian-labeled, compare-exchange partners inside a G-subgraph may
// be several hops apart; the machine then charges the measured cost of a
// permutation routing that exchanges the keys (Section 4 of the paper:
// "permutation routing within G may be used to perform the
// compare-exchange step"). Because disjoint subgraphs operate in
// parallel, the charge for a phase is the maximum cost over subgraphs.
package simnet

import (
	"encoding/binary"
	"fmt"
	"sort"

	"productsort/internal/faults"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/routing"
)

// Key is the value type sorted by the machine.
type Key = int64

// Clock accumulates the time and phase counts of a computation.
type Clock struct {
	// Rounds is the total number of parallel communication rounds.
	Rounds int
	// ComparePhases counts compare-exchange phases issued.
	ComparePhases int
	// RoutedPhases counts phases that required multi-hop routing.
	RoutedPhases int
	// S2Phases counts PG_2 sorting phases (maintained by the 2D sorter).
	S2Phases int
	// SweepPhases counts inter-subgraph odd-even transposition sweeps
	// (maintained by the merge algorithm; Theorem 1 predicts
	// (r-1)(r-2) of them for a full sort).
	SweepPhases int
	// S2Rounds and SweepRounds split Rounds by origin.
	S2Rounds, SweepRounds int
	// CompareOps is the total number of comparator operations (pairs)
	// executed, the "work" of the computation.
	CompareOps int
	// RecoveryRounds counts the extra rounds charged to fault recovery
	// (checkpoint-window retries and repair passes); included in
	// Rounds. Zero on fault-free runs.
	RecoveryRounds int
	// Faults aggregates fault-injection and recovery counters when a
	// fault plan was active; the zero value on fault-free runs keeps
	// Clock comparable with ==.
	Faults faults.Counters
}

// Machine is a product network with one key per node.
type Machine struct {
	net   *product.Network
	keys  []Key
	cost  *CostModel
	clock Clock

	inS2   bool       // attribute current rounds to S2Rounds
	tracer obs.Tracer // nil = tracing disabled (the default)
	phase  int        // phase ordinal for trace identity
	pairs  [][2]int   // the engines' phase buffer (PairBuffer)
}

// costKey identifies a cached routed-exchange cost: the factor graph it
// runs on plus the normalized pairing signature.
type costKey struct {
	g   *graph.Graph
	sig string
}

// CostModel validates compare-exchange phases and prices them in
// parallel communication rounds. It owns the per-factor routing plans,
// a memo of routed-exchange costs and the node stamps PhaseCost checks
// disjointness with, so it can be shared between a live Machine and the
// schedule compiler (package schedule), which must charge phases
// identically. A CostModel is not safe for concurrent use.
type CostModel struct {
	plans     map[*graph.Graph]*routing.Plan
	costCache map[costKey]int
	// busy[v] == gen marks node v as taken by the current phase; a new
	// gen per phase avoids clearing the slice between phases.
	busy []uint32
	gen  uint32
	// The tables PhaseCost checks the pairs of net against, built on
	// the first phase it prices there: the label table, and per
	// dimension the adjacency matrix of its factor.
	net *product.Network
	sym *product.Symbols
	adj []adjacency
}

// adjacency is a factor's adjacency matrix: bit u·n+v of bits is set
// when symbols u and v are adjacent.
type adjacency struct {
	n    int
	bits []uint64
}

// has reports whether symbols u and v are adjacent.
func (m adjacency) has(u, v int) bool {
	bit := u*m.n + v
	return m.bits[bit>>6]&(1<<(bit&63)) != 0
}

// NewCostModel returns an empty cost model.
func NewCostModel() *CostModel {
	return &CostModel{
		plans:     make(map[*graph.Graph]*routing.Plan),
		costCache: make(map[costKey]int),
	}
}

// PlanFor returns (building lazily) the routing plan for a factor graph.
func (c *CostModel) PlanFor(g *graph.Graph) *routing.Plan {
	if p, ok := c.plans[g]; ok {
		return p
	}
	p := routing.NewPlan(g)
	c.plans[g] = p
	return p
}

// PhaseCost validates the pairs of one compare-exchange phase on net and
// prices it, in one pass over the pairs. cost is one round when every
// pair is an edge of the product network, otherwise the maximum measured
// key-exchange routing cost over the G-subgraphs involved (disjoint
// subgraphs run in parallel). dim is the 1-based dimension every pair
// differs in, or 0 when the pairs span several. Pairs must be in range,
// node-disjoint, and each must differ in exactly one dimension;
// violations panic, since they indicate an algorithm bug rather than bad
// input. The first phase the model prices on net builds net's label
// table (product.Symbols, r·Nodes() symbols) and one adjacency matrix
// per distinct factor (n² bits for n symbols); after it, a phase of
// edges allocates nothing.
func (c *CostModel) PhaseCost(net *product.Network, pairs [][2]int) (cost, dim int) {
	sym, adj := c.tables(net)
	busy, gen := c.stamp(net.Nodes())
	allAdjacent := true
	for i, pr := range pairs {
		a, b := pr[0], pr[1]
		if a == b {
			panic("simnet: degenerate compare-exchange pair")
		}
		if uint(a) >= uint(len(busy)) || uint(b) >= uint(len(busy)) {
			panic(fmt.Sprintf("simnet: pair (%d, %d) outside the %d-node network", a, b, len(busy)))
		}
		if busy[a] == gen || busy[b] == gen {
			panic("simnet: overlapping compare-exchange pairs")
		}
		busy[a], busy[b] = gen, gen
		d, da, db := sym.DifferingDim(a, b)
		if d == 0 {
			panic(fmt.Sprintf("simnet: nodes %d and %d differ in more than one dimension", a, b))
		}
		if i == 0 {
			dim = d
		} else if d != dim {
			dim = 0
		}
		if !adj[d-1].has(da, db) {
			allAdjacent = false
		}
	}
	if allAdjacent {
		return 1, dim
	}
	return c.routedCost(net, sym, pairs), dim
}

// tables returns the label table and the per-dimension factor
// adjacency matrices of net, building them when net is not the network
// the model last priced. Dimensions with the same factor share one
// matrix.
func (c *CostModel) tables(net *product.Network) (*product.Symbols, []adjacency) {
	if c.net != net {
		c.net, c.sym, c.adj = net, net.Symbols(), make([]adjacency, net.R())
		for d := range c.adj {
			g := net.FactorAt(d + 1)
			if d > 0 && g == net.FactorAt(d) {
				c.adj[d] = c.adj[d-1]
				continue
			}
			n := g.N()
			m := adjacency{n: n, bits: make([]uint64, (n*n+63)/64)}
			for _, e := range g.Edges() {
				for _, bit := range [2]int{e[0]*n + e[1], e[1]*n + e[0]} {
					m.bits[bit>>6] |= 1 << (bit & 63)
				}
			}
			c.adj[d] = m
		}
	}
	return c.sym, c.adj
}

// stamp returns the node stamps sized for n nodes and the generation
// that marks a node as taken by the phase being checked.
func (c *CostModel) stamp(n int) ([]uint32, uint32) {
	if len(c.busy) < n {
		c.busy, c.gen = make([]uint32, n), 0
	}
	c.gen++
	if c.gen == 0 { // wrapped: stale stamps could collide
		clear(c.busy)
		c.gen = 1
	}
	return c.busy[:n], c.gen
}

// routedCost prices a phase PhaseCost has validated and found to hold
// a non-edge pair: the maximum routed key-exchange cost over the
// G-subgraphs, keyed by (dimension, subgraph base id), that it touches.
func (c *CostModel) routedCost(net *product.Network, sym *product.Symbols, pairs [][2]int) int {
	type subKey struct{ dim, base int }
	subPairs := make(map[subKey][][2]int)
	for _, pr := range pairs {
		d, da, db := sym.DifferingDim(pr[0], pr[1])
		k := subKey{d, pr[0] - da*net.Stride(d)}
		subPairs[k] = append(subPairs[k], [2]int{da, db})
	}
	worst := 1
	for k, fp := range subPairs {
		if cost := c.exchangeCost(net.FactorAt(k.dim), fp); cost > worst {
			worst = cost
		}
	}
	return worst
}

// exchangeCost measures (and caches) the routing cost of a factor-level
// pairwise key exchange on the given factor graph. The cache key encodes
// each endpoint with a varint so factors with ≥256 nodes cannot alias
// (a plain byte cast would truncate ids and corrupt the cache).
func (c *CostModel) exchangeCost(g *graph.Graph, fp [][2]int) int {
	norm := make([][2]int, len(fp))
	for i, pr := range fp {
		a, b := pr[0], pr[1]
		if a > b {
			a, b = b, a
		}
		norm[i] = [2]int{a, b}
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i][0] != norm[j][0] {
			return norm[i][0] < norm[j][0]
		}
		return norm[i][1] < norm[j][1]
	})
	sig := make([]byte, 0, 4*len(norm))
	for _, pr := range norm {
		sig = binary.AppendVarint(sig, int64(pr[0]))
		sig = binary.AppendVarint(sig, int64(pr[1]))
	}
	key := costKey{g: g, sig: string(sig)}
	if cost, ok := c.costCache[key]; ok {
		return cost
	}
	cost := c.PlanFor(g).ExchangeRounds(norm)
	c.costCache[key] = cost
	return cost
}

// Exchange applies one compare-exchange phase to the key array. Pairs
// are (lo, hi) node ids: after the call keys[lo] <= keys[hi] holds for
// every pair. Pairs must be node-disjoint; Exchange does not check.
func Exchange(keys []Key, pairs [][2]int) {
	for _, pr := range pairs {
		if keys[pr[0]] > keys[pr[1]] {
			keys[pr[0]], keys[pr[1]] = keys[pr[1]], keys[pr[0]]
		}
	}
}

// New creates a machine over net loaded with the given keys (one per
// node, copied).
func New(net *product.Network, keys []Key) (*Machine, error) {
	if len(keys) != net.Nodes() {
		return nil, fmt.Errorf("simnet: %d keys for %d nodes", len(keys), net.Nodes())
	}
	m := &Machine{
		net:  net,
		keys: append([]Key(nil), keys...),
		cost: NewCostModel(),
	}
	return m, nil
}

// MustNew is New, panicking on error.
func MustNew(net *product.Network, keys []Key) *Machine {
	m, err := New(net, keys)
	if err != nil {
		panic(err)
	}
	return m
}

// SetTracer attaches a tracer receiving one phase begin/end event pair
// per round-consuming phase (compare-exchange and idle rounds), with
// the machine's running phase ordinal as the event index. nil detaches;
// the detached path adds only a nil check per phase.
func (m *Machine) SetTracer(t obs.Tracer) { m.tracer = t }

// Net returns the underlying product network.
func (m *Machine) Net() *product.Network { return m.net }

// Plan returns the routing plan of the dimension-1 factor (the only
// factor for homogeneous networks).
func (m *Machine) Plan() *routing.Plan { return m.cost.PlanFor(m.net.Factor()) }

// Keys returns a copy of the current key array, indexed by node id.
func (m *Machine) Keys() []Key { return append([]Key(nil), m.keys...) }

// Key returns the key at node id.
func (m *Machine) Key(id int) Key { return m.keys[id] }

// Clock returns a copy of the accumulated counters.
func (m *Machine) Clock() Clock { return m.clock }

// ResetClock zeroes the counters, keeping the keys.
func (m *Machine) ResetClock() { m.clock = Clock{} }

// AddS2Phase records a completed PG_2 sort phase (called by the 2D
// sorter once per logical S_2 invocation).
func (m *Machine) AddS2Phase() { m.clock.S2Phases++ }

// AddSweepPhase records a completed inter-subgraph transposition sweep.
func (m *Machine) AddSweepPhase() { m.clock.SweepPhases++ }

// PairBuffer implements sort2d.Machine: a live machine reads a phase
// only while it runs, so every phase is built in one reused buffer.
func (m *Machine) PairBuffer(n int) [][2]int {
	if cap(m.pairs) < n {
		m.pairs = make([][2]int, 0, n)
	}
	return m.pairs[:0]
}

// BeginMerge implements sort2d.Machine: a live machine keeps no stage
// boundaries.
func (m *Machine) BeginMerge(int) {}

// BeginS2 and EndS2 bracket the rounds attributable to PG_2 sorting so
// the clock can split Rounds into S2Rounds and SweepRounds.
func (m *Machine) BeginS2() { m.inS2 = true }

// EndS2 ends an S2 attribution bracket.
func (m *Machine) EndS2() { m.inS2 = false }

// IdleRound charges one round with no data movement. The algorithm's
// schedule is oblivious (it does not depend on the keys), so a phase in
// which no processor happens to have a partner still consumes a
// synchronous step; this keeps measured rounds equal to the paper's
// closed forms.
func (m *Machine) IdleRound() {
	m.clock.Rounds++
	if m.inS2 {
		m.clock.S2Rounds++
	} else {
		m.clock.SweepRounds++
	}
	if m.tracer != nil {
		ev := obs.Phase{Index: m.phase, Kind: obs.PhaseIdle, S2: m.inS2, Cost: 1}
		m.phase++
		m.tracer.PhaseBegin(ev)
		m.tracer.PhaseEnd(ev)
	}
}

// CompareExchange performs one parallel compare-exchange phase. Each
// pair is (lo, hi): after the phase keys[lo] <= keys[hi]. Pairs must be
// node-disjoint and each pair must differ in exactly one dimension
// (their endpoints then share a G-subgraph); violations panic, since
// they indicate an algorithm bug rather than bad input.
//
// Cost: one round if every pair is an edge of the product network,
// otherwise the maximum measured key-exchange routing cost over the
// G-subgraphs involved (disjoint subgraphs run in parallel).
func (m *Machine) CompareExchange(pairs [][2]int) {
	if len(pairs) == 0 {
		return
	}
	cost, dim := m.cost.PhaseCost(m.net, pairs)
	var ev obs.Phase
	if m.tracer != nil {
		kind := obs.PhaseExchange
		if cost > 1 {
			kind = obs.PhaseRouted
		}
		ev = obs.Phase{
			Index: m.phase,
			Kind:  kind,
			Dim:   dim,
			S2:    m.inS2,
			Cost:  cost,
			Pairs: len(pairs),
		}
		m.phase++
		m.tracer.PhaseBegin(ev)
	}
	Exchange(m.keys, pairs)
	if m.tracer != nil {
		m.tracer.PhaseEnd(ev)
	}
	m.clock.ComparePhases++
	m.clock.CompareOps += len(pairs)
	m.clock.Rounds += cost
	if m.inS2 {
		m.clock.S2Rounds += cost
	} else {
		m.clock.SweepRounds += cost
	}
	if cost > 1 {
		m.clock.RoutedPhases++
	}
}

// SnakeKeys returns the keys read off in snake order of the whole
// network: position i of the result is the key at snake position i.
func (m *Machine) SnakeKeys() []Key {
	out := make([]Key, len(m.keys))
	for pos := range out {
		out[pos] = m.keys[m.net.NodeAtSnake(pos)]
	}
	return out
}

// IsSortedSnake reports whether the keys are in nondecreasing order when
// read in snake order of the whole network.
func (m *Machine) IsSortedSnake() bool {
	prev := int64(0)
	for pos := 0; pos < len(m.keys); pos++ {
		k := m.keys[m.net.NodeAtSnake(pos)]
		if pos > 0 && k < prev {
			return false
		}
		prev = k
	}
	return true
}

// BlockSnakeKeys returns the keys of one block (identified by base and
// spanned by dims) in the block's local snake order.
func (m *Machine) BlockSnakeKeys(base int, dims []int) []Key {
	size := m.net.BlockSize(dims)
	out := make([]Key, size)
	for pos := 0; pos < size; pos++ {
		out[pos] = m.keys[m.net.NodeInBlock(base, dims, pos)]
	}
	return out
}

// IsBlockSortedSnake reports whether a block's keys are nondecreasing in
// the block's local snake order.
func (m *Machine) IsBlockSortedSnake(base int, dims []int) bool {
	size := m.net.BlockSize(dims)
	var prev Key
	for pos := 0; pos < size; pos++ {
		k := m.keys[m.net.NodeInBlock(base, dims, pos)]
		if pos > 0 && k < prev {
			return false
		}
		prev = k
	}
	return true
}

// LoadSnake stores keys so that snake position i holds keys[i]. It is
// free (initial data placement), used to set up merge preconditions in
// tests.
func (m *Machine) LoadSnake(keys []Key) {
	if len(keys) != len(m.keys) {
		panic("simnet: wrong key count")
	}
	for pos, k := range keys {
		m.keys[m.net.NodeAtSnake(pos)] = k
	}
}
