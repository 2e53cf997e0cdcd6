package productsort

import (
	"encoding/json"
	"fmt"

	"productsort/internal/blocksort"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/prouting"
	"productsort/internal/schedule"
	"productsort/internal/seqmerge"
	"productsort/internal/sort2d"
	"productsort/internal/spmd"
	"productsort/internal/viz"
)

// Additional network families and the two extensions built on the
// algorithm's obliviousness: extractable comparator schedules and
// merge-split block sorting.

// CirculantProduct returns the r-dimensional product of the circulant
// graph C_n(offsets).
func CirculantProduct(n int, offsets []int, r int) (*Network, error) {
	if n < 3 {
		return nil, fmt.Errorf("productsort: circulant size %d < 3", n)
	}
	for _, d := range offsets {
		if d <= 0 || d >= n {
			return nil, fmt.Errorf("productsort: circulant offset %d out of range", d)
		}
	}
	return wrap(graph.Circulant(n, offsets...), r)
}

// WheelProduct returns the r-dimensional product of the n-node wheel.
func WheelProduct(n, r int) (*Network, error) {
	if n < 4 {
		return nil, fmt.Errorf("productsort: wheel size %d < 4", n)
	}
	return wrap(graph.Wheel(n), r)
}

// CaterpillarProduct returns the r-dimensional product of a caterpillar
// tree with the given spine length and per-spine-node leaf counts.
func CaterpillarProduct(spine int, legs []int, r int) (*Network, error) {
	if spine < 1 || len(legs) != spine {
		return nil, fmt.Errorf("productsort: caterpillar needs one leg count per spine node")
	}
	for _, l := range legs {
		if l < 0 {
			return nil, fmt.Errorf("productsort: negative leg count")
		}
	}
	return wrap(graph.Caterpillar(spine, legs), r)
}

// KautzProduct returns the r-dimensional product of the base-b,
// dimension-d Kautz graph.
func KautzProduct(b, d, r int) (*Network, error) {
	if b < 2 || d < 1 {
		return nil, fmt.Errorf("productsort: Kautz base %d / dim %d invalid", b, d)
	}
	return wrap(graph.Kautz(b, d), r)
}

// RectGrid returns a rectangular grid: the heterogeneous product of
// paths with the given side lengths, sides[0] being dimension 1 (the
// least significant axis of the snake order). The sorting algorithm's
// heterogeneous correctness condition requires the sides above
// dimension 1 to be nonincreasing (sides[1] ≥ sides[2] ≥ …); dimension 1
// is unconstrained. When the given order violates the condition the
// sides above dimension 1 are rearranged into nonincreasing order —
// check Radices for the layout actually used.
func RectGrid(sides ...int) (*Network, error) {
	return heteroOf("grid", sides, func(n int) (*graph.Graph, error) {
		if n < 2 {
			return nil, fmt.Errorf("productsort: grid side %d < 2", n)
		}
		return graph.Path(n), nil
	})
}

// RectTorus returns the heterogeneous product of cycles with the given
// side lengths, with the same dimension conventions as RectGrid. Every
// side must be at least 3.
func RectTorus(sides ...int) (*Network, error) {
	return heteroOf("torus", sides, func(n int) (*graph.Graph, error) {
		if n < 3 {
			return nil, fmt.Errorf("productsort: torus side %d < 3", n)
		}
		return graph.Cycle(n), nil
	})
}

func heteroOf(kind string, sides []int, factor func(int) (*graph.Graph, error)) (*Network, error) {
	if len(sides) < 1 {
		return nil, fmt.Errorf("productsort: %s needs at least one side", kind)
	}
	arranged := append([]int(nil), sides...)
	// Sort sides above dimension 1 into nonincreasing order.
	upper := arranged[1:]
	for i := 1; i < len(upper); i++ {
		for j := i; j > 0 && upper[j] > upper[j-1]; j-- {
			upper[j], upper[j-1] = upper[j-1], upper[j]
		}
	}
	factors := make([]*graph.Graph, len(arranged))
	for i, n := range arranged {
		g, err := factor(n)
		if err != nil {
			return nil, err
		}
		factors[i] = g
	}
	p, err := product.NewHetero(factors)
	if err != nil {
		return nil, err
	}
	return &Network{net: p}, nil
}

// Radices returns the per-dimension factor sizes (index 0 =
// dimension 1); useful to see the layout RectGrid/RectTorus chose.
func (nw *Network) Radices() []int { return nw.net.Radices() }

// RelabelDilation3 relabels the factor graph along a dilation-≤3 linear
// order (the paper's Section 2 embedding for non-Hamiltonian factors),
// which caps the routing cost of every compare-exchange sweep. For
// factors that already trace a Hamiltonian path the network is returned
// unchanged.
func RelabelDilation3(nw *Network) *Network {
	g := nw.net.Factor()
	if g.HamiltonianLabeled() {
		return nw
	}
	out, err := wrap(graph.LinearRelabel(g), nw.net.R())
	if err != nil {
		panic(err) // same parameters as the valid input network
	}
	return out
}

// Schedule is the oblivious compare-exchange schedule of a full sort on
// a network: a reusable sorting network in snake coordinates. It is a
// view of the network's compiled program. See ExtractSchedule.
type Schedule struct {
	nw   *Network
	prog *schedule.Program
}

// ExtractSchedule records the algorithm's phase list for the network
// with the named S₂ engine ("auto" if empty). The schedule is
// deterministic and key-independent; it can be replayed with Apply or
// used for block sorting with SortBlocks.
func ExtractSchedule(nw *Network, engineName string) (*Schedule, error) {
	e, err := sort2d.ByName(engineName)
	if err != nil {
		return nil, err
	}
	prog, err := schedule.Compile(nw.net, e)
	if err != nil {
		return nil, err
	}
	return &Schedule{nw: nw, prog: prog}, nil
}

// Inputs returns the schedule's sequence length (the processor count).
func (s *Schedule) Inputs() int { return s.prog.Nodes() }

// Depth returns the number of parallel compare-exchange phases.
func (s *Schedule) Depth() int { return s.prog.Clock().ComparePhases }

// Size returns the total comparator count.
func (s *Schedule) Size() int { return s.prog.Size() }

// Apply sorts keys in place by replaying the schedule; len(keys) must
// equal Inputs(). Like SortBatch, it executes only the comparators that
// can swap (THEORY.md §17); the output is the same.
func (s *Schedule) Apply(keys []Key) {
	if len(keys) != s.Inputs() {
		panic(fmt.Sprintf("productsort: %d keys for %d-input schedule", len(keys), s.Inputs()))
	}
	if err := schedule.RunBatchColumnar(s.prog, [][]Key{keys}, 1, batchColumns); err != nil {
		panic(err) // unreachable: the length was checked above
	}
}

// MarshalJSON encodes the schedule (network name, input count, phase
// list) for external tools; cmd/schedule writes this format. Every
// compare-exchange phase is listed in full, as snake positions of the
// schedule's own network.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	phases := s.prog.Phases()
	for _, ph := range phases {
		for j, pr := range ph {
			ph[j] = [2]int{s.nw.net.SnakePos(pr[0]), s.nw.net.SnakePos(pr[1])}
		}
	}
	return json.Marshal(struct {
		Network string     `json:"network"`
		Inputs  int        `json:"inputs"`
		Phases  [][][2]int `json:"phases"`
	}{s.nw.Name(), s.Inputs(), phases})
}

// BlockStats reports the work of a blocked sort.
type BlockStats struct {
	// Rounds is the parallel merge-split round count — equal to the
	// schedule depth, independent of block size.
	Rounds int
	// MergeSplits is the number of merge-splits executed: one per
	// comparator the known-order pass keeps (THEORY.md §8, §17), at
	// most Size().
	MergeSplits int
	// KeysMoved counts keys shipped between processors.
	KeysMoved int
}

// Render draws keys (given in snake order, as Result.Keys and observer
// callbacks provide them) as an ASCII grid in the paper's figure layout:
// dimension 1 left-to-right, dimension 2 top-to-bottom, dimension 3 as
// side-by-side slabs. Networks with r > 3 fall back to the snake
// sequence.
func (nw *Network) Render(snakeKeys []Key) string {
	if len(snakeKeys) != nw.Nodes() {
		return fmt.Sprintf("render: %d keys for %d nodes\n", len(snakeKeys), nw.Nodes())
	}
	byNode := make([]Key, len(snakeKeys))
	for pos, k := range snakeKeys {
		byNode[nw.net.NodeAtSnake(pos)] = k
	}
	return viz.RenderKeys(nw.net, byNode)
}

// DOT renders the whole product network in Graphviz DOT format (small
// networks only: every edge is emitted).
func (nw *Network) DOT() string { return viz.ProductDOT(nw.net) }

// FactorDOT renders the factor graph in Graphviz DOT format with the
// snake-order edges highlighted.
func (nw *Network) FactorDOT() string { return viz.FactorDOT(nw.net.Factor()) }

// RouteStats reports a permutation routing simulation on the network.
type RouteStats struct {
	// Rounds is the parallel routing time (single-port model).
	Rounds int
	// MaxQueue is the deepest per-node packet queue observed.
	MaxQueue int
	// TotalHops is the summed hop count of all packets.
	TotalHops int
}

// RoutePermutation simulates store-and-forward routing of the
// permutation perm on the network: node v's packet travels to perm[v]
// along dimension-ordered shortest paths. This prices explicit data
// movements — the operations the sorting algorithm's free Steps 1 and 3
// avoid.
func (nw *Network) RoutePermutation(perm []int) (RouteStats, error) {
	if len(perm) != nw.Nodes() {
		return RouteStats{}, fmt.Errorf("productsort: permutation length %d for %d nodes", len(perm), nw.Nodes())
	}
	seen := make([]bool, nw.Nodes())
	for _, d := range perm {
		if d < 0 || d >= nw.Nodes() || seen[d] {
			return RouteStats{}, fmt.Errorf("productsort: not a permutation")
		}
		seen[d] = true
	}
	st := prouting.New(nw.net).Route(perm)
	return RouteStats{Rounds: st.Rounds, MaxQueue: st.MaxQueue, TotalHops: st.TotalHops}, nil
}

// MessagePassingResult reports a SortMessagePassing run.
type MessagePassingResult struct {
	// Keys holds the sorted keys in snake order.
	Keys []Key
	// Messages is the number of key messages processors sent.
	Messages int
	// Relays counts store-and-forward hops through intermediate
	// processors (non-zero only for non-Hamiltonian factors).
	Relays int
}

// SortMessagePassing sorts keys with the fully concurrent SPMD engine:
// one goroutine per processor, every key movement crossing a physical
// network edge (multi-hop relays for routed exchanges). Functionally
// identical to Sort; use it to validate edge-faithful execution or to
// watch real concurrency. Time accounting lives in Sort's simulator.
func SortMessagePassing(nw *Network, keys []Key) (*MessagePassingResult, error) {
	if len(keys) != nw.Nodes() {
		return nil, fmt.Errorf("productsort: %d keys for %d nodes", len(keys), nw.Nodes())
	}
	e, err := spmd.SortNet(nw.net, keys, nil)
	if err != nil {
		return nil, err
	}
	return &MessagePassingResult{
		Keys:     e.SnakeKeys(),
		Messages: e.Messages(),
		Relays:   e.Relays(),
	}, nil
}

// SortBlocks sorts Inputs()×blockSize keys in place: processor i holds
// keys[i·blockSize : (i+1)·blockSize]. Each processor pre-sorts its
// block, then the schedule runs with merge-split operators — the same
// number of parallel rounds as the one-key-per-node sort, with
// blockSize keys moving per exchange. This is the keys ≫ processors
// regime in which the paper's Section 1 places multiway algorithms.
func (s *Schedule) SortBlocks(keys []Key, blockSize int) (BlockStats, error) {
	st, err := blocksort.Sort(s.prog, keys, blockSize)
	if err != nil {
		return BlockStats{}, err
	}
	return BlockStats{Rounds: st.Rounds, MergeSplits: st.MergeSplits, KeysMoved: st.KeysMoved}, nil
}

// MergeSorted merges any number (≥2) of equal-length sorted key slices
// into one sorted slice with the paper's multiway-merge algorithm run
// as a sequence procedure (Section 3 verbatim; no simulator involved).
// The slice length must be a power of the slice count. For general
// merging needs this is a curiosity — the point is that the paper's
// network algorithm is, at heart, an ordinary merge procedure.
func MergeSorted(seqs [][]Key) ([]Key, error) { return seqmerge.Merge(seqs) }

// SortSequence sorts n^r keys with the sequence form of the algorithm
// (Section 3.3 driver, no simulator): a fast reference for validating
// network runs at large sizes.
func SortSequence(keys []Key, n, r int) ([]Key, error) { return seqmerge.Sort(keys, n, r) }
