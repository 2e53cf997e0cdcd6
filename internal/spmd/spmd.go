// Package spmd executes the sorting algorithm as a true message-passing
// program: one persistent goroutine per processor, communicating
// exclusively over channels that correspond to physical edges of the
// product network. Compare-exchange partners that are not adjacent
// (non-Hamiltonian factors) exchange keys by store-and-forward relaying
// through intermediate processors, exactly as the paper's Section 4
// routing fallback describes.
//
// The deterministic simulator (package simnet) owns *time* accounting;
// this engine establishes *functional* faithfulness: the same results
// emerge when every key only ever moves across real edges, driven by
// concurrent processors. Tests run it under the race detector against
// the sequential machine.
package spmd

import (
	"fmt"
	"sync"

	"productsort/internal/faults"
	"productsort/internal/graph"
	"productsort/internal/obs"
	"productsort/internal/product"
	"productsort/internal/routing"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
	"productsort/internal/sort2d"
)

// Key aliases the machine key type.
type Key = simnet.Key

// message carries one key toward the processor that must compare it.
// hops and attempt are the message's own path coordinates; fault
// decisions key on them (never on scheduler state), so a fault plan's
// realization is independent of goroutine interleaving.
type message struct {
	dst     int // destination node id
	origin  int // sender node id (the partner)
	key     Key
	hops    int // forwarding hops taken so far
	attempt int // retransmission attempt (0 = original send)
}

// Engine executes oblivious phase schedules over a product network with
// goroutine processors.
type Engine struct {
	net   *product.Network
	plans []*routing.Plan // per dimension (index dim-1), prebuilt: read-only during phases
	keys  []Key

	// Fault world (nil when fault-free): the plan decides message
	// drops, duplicates and stalls inside RunPhaseSynchronized, and
	// survive[dim-1] holds the BFS forwarding plan on the dimension's
	// surviving factor graph when links are dead (nil = dimension
	// intact, use the default plan).
	plan    *faults.Plan
	survive []*routing.Plan
	phase   int // phase counter keying fault decisions

	// Stats
	messages int // total messages injected
	relays   int // forwarding hops beyond the first send

	tracer  obs.Tracer // nil = tracing disabled
	phaseNo int        // phase ordinal for trace identity (all modes)
}

// SetTracer attaches a tracer that receives one MessageStats event per
// executed phase with the phase's message and relay deltas (and, in
// synchronized mode, its measured round count). nil detaches.
func (e *Engine) SetTracer(t obs.Tracer) { e.tracer = t }

// emitStats reports one phase's traffic to the tracer.
func (e *Engine) emitStats(sent, relays, rounds int) {
	if e.tracer == nil {
		return
	}
	e.tracer.MessageStats(obs.Messages{Phase: e.phaseNo, Sent: sent, Relays: relays, Rounds: rounds})
	e.phaseNo++
}

// New builds an engine holding the given keys (indexed by node id,
// copied). Routing plans are prebuilt per dimension so the concurrent
// phase goroutines only read shared state.
func New(net *product.Network, keys []Key) (*Engine, error) {
	if len(keys) != net.Nodes() {
		return nil, fmt.Errorf("spmd: %d keys for %d nodes", len(keys), net.Nodes())
	}
	byFactor := make(map[*graph.Graph]*routing.Plan)
	plans := make([]*routing.Plan, net.R())
	for dim := 1; dim <= net.R(); dim++ {
		g := net.FactorAt(dim)
		if byFactor[g] == nil {
			byFactor[g] = routing.NewPlan(g)
		}
		plans[dim-1] = byFactor[g]
	}
	return &Engine{
		net:   net,
		plans: plans,
		keys:  append([]Key(nil), keys...),
	}, nil
}

// SetFaultPlan attaches a deterministic fault plan to the engine (nil
// detaches). Dead links are bound per dimension: messages reroute
// around them via BFS forwarding tables computed on the surviving
// factor graph, counted as rerouted hops on the plan. Message-level
// drops, duplicates and node stalls are injected inside
// RunPhaseSynchronized. Returns an error when a forced dead link does
// not exist or would disconnect a factor.
func (e *Engine) SetFaultPlan(p *faults.Plan) error {
	if p == nil {
		e.plan, e.survive = nil, nil
		return nil
	}
	survive := make([]*routing.Plan, e.net.R())
	for dim := 1; dim <= e.net.R(); dim++ {
		if _, err := p.BindFactor(dim, e.net.FactorAt(dim)); err != nil {
			return err
		}
		survive[dim-1] = p.SurvivingPlan(dim)
	}
	e.plan = p
	e.survive = survive
	return nil
}

// Keys returns a copy of the current keys, indexed by node id.
func (e *Engine) Keys() []Key { return append([]Key(nil), e.keys...) }

// Messages returns the total number of key messages sent.
func (e *Engine) Messages() int { return e.messages }

// Relays returns the number of forwarding hops performed by
// intermediate processors (0 when every partner pair was adjacent).
func (e *Engine) Relays() int { return e.relays }

// RunPhase executes one compare-exchange phase: every pair (lo, hi)
// exchanges keys — directly if adjacent, relayed otherwise — and lo
// keeps the minimum. Pairs must be node-disjoint and differ in exactly
// one dimension.
func (e *Engine) RunPhase(pairs [][2]int) {
	if len(pairs) == 0 {
		return
	}
	sent0, relays0 := e.messages, e.relays
	n := e.net.Nodes()
	// Role lookup: role[v] = +1 if v is a lo endpoint, -1 if hi, with
	// partner[v] the other endpoint.
	role := make([]int8, n)
	partner := make([]int, n)
	for _, pr := range pairs {
		lo, hi := pr[0], pr[1]
		if role[lo] != 0 || role[hi] != 0 {
			panic("spmd: overlapping pairs")
		}
		role[lo], role[hi] = 1, -1
		partner[lo], partner[hi] = hi, lo
	}

	// Inboxes: buffered so no relay can block. At most 2·len(pairs)
	// messages are live at any time (each occupies one inbox slot).
	inbox := make([]chan message, n)
	for v := range inbox {
		inbox[v] = make(chan message, 2*len(pairs))
	}
	done := make(chan struct{})
	var deliveries sync.WaitGroup
	deliveries.Add(2 * len(pairs))

	var mu sync.Mutex // guards stats counters
	received := make([]Key, n)

	var wg sync.WaitGroup
	for v := 0; v < n; v++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			// Participants inject their key toward their partner.
			if role[self] != 0 {
				dst := partner[self]
				hop := e.nextHop(self, dst)
				inbox[hop] <- message{dst: dst, origin: self, key: e.keys[self]}
				mu.Lock()
				e.messages++
				mu.Unlock()
			}
			for {
				select {
				case m := <-inbox[self]:
					if m.dst == self {
						received[self] = m.key
						deliveries.Done()
						continue
					}
					hop := e.nextHop(self, m.dst)
					mu.Lock()
					e.relays++
					mu.Unlock()
					inbox[hop] <- m
				case <-done:
					return
				}
			}
		}(v)
	}
	deliveries.Wait()
	close(done)
	wg.Wait()

	// Resolve the compare-exchange locally at each endpoint.
	for _, pr := range pairs {
		lo, hi := pr[0], pr[1]
		if received[lo] < e.keys[lo] {
			e.keys[lo] = received[lo]
		}
		if received[hi] > e.keys[hi] {
			e.keys[hi] = received[hi]
		}
	}
	e.emitStats(e.messages-sent0, e.relays-relays0, 0)
}

// nextHop returns the neighbor of cur on the way to dst, counting a
// rerouted hop on the fault plan when a dead link forced a detour.
func (e *Engine) nextHop(cur, dst int) int {
	hop, rerouted := e.hopTo(cur, dst)
	if rerouted {
		e.plan.Add(faults.Counters{Rerouted: 1})
	}
	return hop
}

// hopTo returns the neighbor of cur on the way to dst, and whether the
// hop deviates from the fault-free forwarding table because a dead link
// forced a reroute. cur and dst must differ in exactly one dimension;
// the hop follows that dimension's shortest-path forwarding table —
// computed on the surviving factor graph when links are dead — so it
// always crosses a physical (and alive) edge.
func (e *Engine) hopTo(cur, dst int) (int, bool) {
	for dim := 1; dim <= e.net.R(); dim++ {
		dc, dd := e.net.Digit(cur, dim), e.net.Digit(dst, dim)
		if dc != dd {
			def := e.plans[dim-1].NextHop(dc, dd)
			next := def
			if e.survive != nil && e.survive[dim-1] != nil {
				next = e.survive[dim-1].NextHop(dc, dd)
			}
			hop := e.net.SetDigit(cur, dim, next)
			if !e.net.Adjacent(cur, hop) {
				panic("spmd: forwarding plan produced a non-edge")
			}
			return hop, next != def
		}
	}
	panic("spmd: no differing dimension between relay endpoints")
}

// maxAttempts bounds retransmissions of one logical message before its
// pair is abandoned for the phase (the recovery layer's scrub-and-retry
// handles the fallout).
const maxAttempts = 8

// RunPhaseSynchronized executes one compare-exchange phase in
// barrier-synchronized rounds and returns the round count: per round
// every processor concurrently picks at most one queued message and
// forwards it one hop (single-port sends; deliveries are unbounded,
// matching the simulator's full-duplex accounting of exchanges as
// crossing flows). For phases whose pairs are all adjacent this measures
// exactly 1 round, the simulator's charge.
//
// With a fault plan attached (SetFaultPlan), faults are injected at the
// message level: a dropped message is retransmitted from its origin on
// a later round (counted as a retry, up to maxAttempts), duplicated
// messages travel as extra copies and are discarded at delivery,
// stalled processors skip a forwarding round, and hops route around
// dead links via the surviving factor graphs. All extra rounds this
// costs show up in the returned round count — the measured price of the
// recovery, in the paper's own units. A pair whose keys never both
// arrive is skipped (the exchange does not commit; keys are only ever
// permuted, never invented) and counted unrecoverable for the phase.
func (e *Engine) RunPhaseSynchronized(pairs [][2]int) int {
	if len(pairs) == 0 {
		return 0
	}
	phase := e.phase
	e.phase++
	sent0, relays0 := e.messages, e.relays
	n := e.net.Nodes()
	role := make([]int8, n)
	partner := make([]int, n)
	for _, pr := range pairs {
		lo, hi := pr[0], pr[1]
		if role[lo] != 0 || role[hi] != 0 {
			panic("spmd: overlapping pairs")
		}
		role[lo], role[hi] = 1, -1
		partner[lo], partner[hi] = hi, lo
	}
	// queues[v] holds in-flight messages currently stored at v.
	queues := make([][]message, n)
	live := 0
	for _, pr := range pairs {
		for _, self := range []int{pr[0], pr[1]} {
			queues[self] = append(queues[self], message{dst: partner[self], origin: self, key: e.keys[self]})
			live++
		}
	}
	received := make([]Key, n)
	got := make([]bool, n)
	maxRounds := 0
	if e.plan != nil {
		// Liveness bound under faults: past this, surviving messages are
		// abandoned and their pairs skipped at commit.
		maxRounds = 128 + 64*e.net.Diameter() + 8*maxAttempts
	}
	rounds := 0
	for live > 0 {
		if maxRounds > 0 && rounds >= maxRounds {
			break
		}
		rounds++
		moved := make([][]message, n)
		var retrans []message
		var wg sync.WaitGroup
		var mu sync.Mutex
		consumed := 0
		added := 0
		for v := 0; v < n; v++ {
			if len(queues[v]) == 0 {
				continue
			}
			if e.plan != nil && e.plan.NodeStalledRound(phase, rounds, v) {
				// Stalled processor: its queue waits a round.
				e.plan.Add(faults.Counters{Stalled: 1, Injected: 1})
				continue
			}
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				// Single-port send: forward the first queued message.
				m := queues[self][0]
				queues[self] = queues[self][1:]
				if m.dst == self {
					mu.Lock()
					if !got[self] {
						got[self], received[self] = true, m.key
					}
					consumed++
					mu.Unlock()
					return
				}
				if e.plan != nil && e.plan.MessageDropped(phase, m.attempt, m.origin, m.dst, m.hops) {
					// The message is lost in flight; its origin
					// retransmits on a later round (bounded attempts).
					delta := faults.Counters{Dropped: 1, Injected: 1}
					mu.Lock()
					consumed++
					if m.attempt < maxAttempts {
						retrans = append(retrans, message{dst: m.dst, origin: m.origin, key: e.keys[m.origin], attempt: m.attempt + 1})
						delta.Retried = 1
					}
					mu.Unlock()
					e.plan.Add(delta)
					return
				}
				hop, rerouted := e.hopTo(self, m.dst)
				if rerouted {
					e.plan.Add(faults.Counters{Rerouted: 1})
				}
				dup := e.plan != nil && e.plan.MessageDuplicated(phase, m.attempt, m.origin, m.dst, m.hops)
				if dup {
					e.plan.Add(faults.Counters{Duplicated: 1, Injected: 1})
				}
				m.hops++
				if hop == m.dst {
					// Terminal hop: deliver directly; duplicate copies
					// of an already-delivered key are discarded.
					mu.Lock()
					if !got[m.dst] {
						got[m.dst], received[m.dst] = true, m.key
					}
					consumed++
					mu.Unlock()
					return
				}
				mu.Lock()
				moved[hop] = append(moved[hop], m)
				e.relays++
				if dup {
					moved[hop] = append(moved[hop], m)
					added++
					e.relays++
				}
				mu.Unlock()
			}(v)
		}
		wg.Wait()
		for v := range moved {
			queues[v] = append(queues[v], moved[v]...)
		}
		for _, m := range retrans {
			queues[m.origin] = append(queues[m.origin], m)
			added++
		}
		live += added - consumed
	}
	e.messages += 2 * len(pairs)
	for _, pr := range pairs {
		lo, hi := pr[0], pr[1]
		if e.plan != nil && (!got[lo] || !got[hi]) {
			// One side never received its partner's key: skip the
			// exchange so keys are never invented or lost.
			e.plan.Add(faults.Counters{Unrecoverable: 1})
			continue
		}
		if received[lo] < e.keys[lo] {
			e.keys[lo] = received[lo]
		}
		if received[hi] > e.keys[hi] {
			e.keys[hi] = received[hi]
		}
	}
	e.emitStats(e.messages-sent0, e.relays-relays0, rounds)
	return rounds
}

// RunScheduleSynchronized executes every phase with synchronized rounds
// and returns the total round count.
func (e *Engine) RunScheduleSynchronized(phases [][][2]int) int {
	total := 0
	for _, ph := range phases {
		r := e.RunPhaseSynchronized(ph)
		if r == 0 {
			r = 1 // oblivious schedule: an empty phase still takes a step
		}
		total += r
	}
	return total
}

// RunProgram executes every compare-exchange phase of a compiled
// program. Markers and idle rounds carry no key motion, so a purely
// functional engine skips them; time accounting lives in the program's
// precomputed clock.
func (e *Engine) RunProgram(prog *schedule.Program) {
	for _, ph := range prog.Phases() {
		e.RunPhase(ph)
	}
}

// Sort runs the full multiway-merge sort as a message-passing program
// on PG_r of factor g: the oblivious schedule is derived once (every
// processor of a real machine could compute it locally from N and r)
// and then executed by goroutine processors. Returns the engine for
// inspection; keys end in snake order.
func Sort(g *graph.Graph, r int, keys []Key, engine sort2d.Engine) (*Engine, error) {
	net, err := product.New(g, r)
	if err != nil {
		return nil, err
	}
	return SortNet(net, keys, engine)
}

// SortNet is Sort for an existing product network (heterogeneous
// networks included).
func SortNet(net *product.Network, keys []Key, engine sort2d.Engine) (*Engine, error) {
	prog, err := schedule.Compile(net, engine)
	if err != nil {
		return nil, err
	}
	if len(keys) != net.Nodes() {
		return nil, fmt.Errorf("spmd: %d keys for %d nodes", len(keys), net.Nodes())
	}
	byNode := make([]Key, len(keys))
	for pos, k := range keys {
		byNode[net.NodeAtSnake(pos)] = k
	}
	e, err := New(net, byNode)
	if err != nil {
		return nil, err
	}
	e.RunProgram(prog)
	return e, nil
}

// SnakeKeys returns the engine's keys read in snake order.
func (e *Engine) SnakeKeys() []Key {
	out := make([]Key, len(e.keys))
	for pos := range out {
		out[pos] = e.keys[e.net.NodeAtSnake(pos)]
	}
	return out
}
