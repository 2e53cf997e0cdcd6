// Candidate pair pools and the q distributions over them.
//
// The randomized engine draws compare-exchange pairs from a fixed
// distribution q whose support is the product network's edge set plus
// every snake-consecutive pair. The snake pairs matter for
// correctness, not just speed: a state in which every supported pair
// is locally ordered must be globally sorted, and only the
// snake-consecutive pairs guarantee that implication (on a
// Hamiltonian-labeled factor they are network edges anyway; on a
// non-Hamiltonian factor, e.g. mesh-connected trees, they become
// routed exchanges exactly as in the deterministic schedule).

package randsort

import (
	"fmt"

	"productsort/internal/faults"
	"productsort/internal/product"
)

// Variant selects the distribution q over the candidate pair pool.
type Variant uint8

const (
	// QUniform draws uniformly over the pool.
	QUniform Variant = iota
	// QSnakeBiased up-weights snake-consecutive pairs by snakeBias,
	// biasing the process toward odd-even-transposition moves along the
	// global order while keeping every edge in support.
	QSnakeBiased
)

// snakeBias is QSnakeBiased's weight multiplier on snake-consecutive
// pairs.
const snakeBias = 4.0

// String names the variant (also the engine-name suffix).
func (v Variant) String() string {
	switch v {
	case QUniform:
		return "uniform"
	case QSnakeBiased:
		return "snake-biased"
	}
	return fmt.Sprintf("variant(%d)", uint8(v))
}

// Variants lists every defined q variant.
func Variants() []Variant { return []Variant{QUniform, QSnakeBiased} }

// VariantByName resolves a variant from its String form; "" selects
// QUniform.
func VariantByName(name string) (Variant, error) {
	switch name {
	case "", "uniform":
		return QUniform, nil
	case "snake-biased":
		return QSnakeBiased, nil
	}
	return 0, &ConfigError{Field: "Q", Reason: fmt.Sprintf("unknown variant %q", name)}
}

// candidate is one supported pair: node ids oriented so lo holds the
// smaller snake position (after a compare-exchange the minimum sits at
// lo, i.e. earlier in the global order).
type candidate struct {
	lo, hi int
	snake  bool // consecutive snake positions
}

// buildPool assembles the candidate pool: every product-network edge
// plus every snake-consecutive pair, deduplicated, in deterministic
// order. Edges whose factor link the plan killed are removed (their
// exchange is physically impossible); snake-consecutive pairs always
// stay — with the direct link dead they are simply priced as routed
// detours on the surviving network, the same graceful degradation the
// deterministic replay applies.
func buildPool(net *product.Network, plan *faults.Plan) []candidate {
	n := net.Nodes()
	seen := make(map[[2]int]int, 3*n) // normalized pair -> pool index
	var pool []candidate
	add := func(a, b int, snake bool) {
		key := [2]int{a, b}
		if a > b {
			key = [2]int{b, a}
		}
		if i, ok := seen[key]; ok {
			if snake {
				pool[i].snake = true
			}
			return
		}
		lo, hi := a, b
		if net.SnakePos(lo) > net.SnakePos(hi) {
			lo, hi = hi, lo
		}
		if !snake && plan != nil {
			// A network edge differs in exactly one dimension.
			if plan.LinkDead(net.DifferingDim(a, b)) {
				return
			}
		}
		seen[key] = len(pool)
		pool = append(pool, candidate{lo: lo, hi: hi, snake: snake})
	}
	for a := 0; a < n; a++ {
		for _, b := range net.Neighbors(a) {
			if b > a {
				add(a, b, false)
			}
		}
	}
	for pos := 0; pos+1 < n; pos++ {
		add(net.NodeAtSnake(pos), net.NodeAtSnake(pos+1), true)
	}
	return pool
}

// weights assigns each candidate its (unnormalized) q mass under the
// variant and returns the cumulative sums the sampler binary-searches.
func weights(v Variant, pool []candidate) (cum []float64, total float64) {
	cum = make([]float64, len(pool))
	for i, c := range pool {
		w := 1.0
		if v == QSnakeBiased && c.snake {
			w = snakeBias
		}
		total += w
		cum[i] = total
	}
	return cum, total
}
