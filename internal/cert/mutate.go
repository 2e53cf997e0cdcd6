// Mutation testing for the certifier itself: derive corrupted-but-valid
// variants of a compiled program so tests can assert the certifier
// rejects every non-equivalent mutant. A verifier that has never been
// shown a broken program proves nothing; this harness is what keeps the
// 0-1 engine honest.

package cert

import (
	"fmt"
	"math/rand"
	"slices"

	"productsort/internal/schedule"
)

// Mutant is one structurally valid corruption of a base program.
type Mutant struct {
	// Name identifies the mutation site, e.g. "swap-lohi@op12.3".
	Name string
	// Operator is the mutation operator that produced it.
	Operator string
	// Prog is the mutated program; it always passes Program.Validate.
	Prog *schedule.Program
}

// Operators names the mutation operators Mutants applies. All but
// broken-prune corrupt the ops; broken-prune keeps the ops intact and
// drops one live comparator from the executed stream — a wrong
// pruning pass, which the certifier must reject even when the
// shortened stream still happens to sort. broken-stage does the same
// with a comparator of one merge that swaps on some sorted tuple of
// that merge, and that merge's stage certificate (Staged) must reject
// it.
var Operators = []string{"drop-op", "swap-lohi", "perturb-endpoint", "reorder-phases", "drop-pair", "broken-prune", "broken-stage"}

// Mutants generates up to perOp deterministic mutants per operator from
// prog, using a seeded PRNG to pick mutation sites. Every returned
// mutant is a valid program (in-range, node-disjoint pairs); whether it
// still sorts is exactly the question the certifier under test must
// answer. Duplicate sites are not retried, so fewer than perOp mutants
// per operator may be returned on tiny programs.
func Mutants(prog *schedule.Program, perOp int, seed int64) []Mutant {
	rng := rand.New(rand.NewSource(seed))
	ops := prog.Ops()
	var exIdx []int // indices of exchange ops
	for i := range ops {
		switch ops[i].Kind {
		case schedule.OpCompareExchange, schedule.OpRoutedExchange:
			exIdx = append(exIdx, i)
		}
	}
	if len(exIdx) == 0 {
		return nil
	}
	net := prog.Net()
	var out []Mutant
	add := func(operator, site string, mutate func([]schedule.Op) []schedule.Op) {
		mutated := mutate(cloneOps(ops))
		mp, err := schedule.NewProgram(net, prog.Engine(), "adhoc", mutated)
		if err != nil {
			// The operator produced an invalid program — a harness bug,
			// not a legitimate mutant.
			panic(fmt.Sprintf("cert: mutant %s@%s invalid: %v", operator, site, err))
		}
		out = append(out, Mutant{Name: operator + "@" + site, Operator: operator, Prog: mp})
	}

	for m := 0; m < perOp; m++ {
		// drop-op: delete one whole exchange phase.
		i := exIdx[rng.Intn(len(exIdx))]
		add("drop-op", fmt.Sprintf("op%d", i), func(o []schedule.Op) []schedule.Op {
			return append(o[:i], o[i+1:]...)
		})

		// swap-lohi: reverse one comparator's direction (max lands on
		// the lower snake side).
		i = exIdx[rng.Intn(len(exIdx))]
		j := rng.Intn(len(ops[i].Pairs))
		add("swap-lohi", fmt.Sprintf("op%d.%d", i, j), func(o []schedule.Op) []schedule.Op {
			o[i].Pairs[j][0], o[i].Pairs[j][1] = o[i].Pairs[j][1], o[i].Pairs[j][0]
			return o
		})

		// perturb-endpoint: retarget one comparator endpoint to a node
		// the phase does not otherwise touch, keeping the op
		// node-disjoint (and hence valid).
		i = exIdx[rng.Intn(len(exIdx))]
		j = rng.Intn(len(ops[i].Pairs))
		side := rng.Intn(2)
		if node, ok := unusedNode(ops[i].Pairs, net.Nodes(), rng); ok {
			add("perturb-endpoint", fmt.Sprintf("op%d.%d.%d", i, j, side), func(o []schedule.Op) []schedule.Op {
				o[i].Pairs[j][side] = node
				return o
			})
		}

		// reorder-phases: swap the positions of two exchange phases.
		if len(exIdx) >= 2 {
			a := exIdx[rng.Intn(len(exIdx))]
			b := exIdx[rng.Intn(len(exIdx))]
			for b == a {
				b = exIdx[rng.Intn(len(exIdx))]
			}
			add("reorder-phases", fmt.Sprintf("op%d,op%d", a, b), func(o []schedule.Op) []schedule.Op {
				o[a], o[b] = o[b], o[a]
				return o
			})
		}

		// drop-pair: remove one comparator from a multi-pair phase.
		var multi []int
		for _, i := range exIdx {
			if len(ops[i].Pairs) >= 2 {
				multi = append(multi, i)
			}
		}
		if len(multi) > 0 {
			i = multi[rng.Intn(len(multi))]
			j = rng.Intn(len(ops[i].Pairs))
			add("drop-pair", fmt.Sprintf("op%d.%d", i, j), func(o []schedule.Op) []schedule.Op {
				o[i].Pairs = append(o[i].Pairs[:j], o[i].Pairs[j+1:]...)
				return o
			})
		}
	}
	out = append(out, brokenPrunes(prog, perOp, seed)...)
	out = append(out, brokenStages(prog, perOp, seed)...)
	return dedupeMutants(out)
}

// brokenPrunes returns up to n programs with prog's ops whose executed
// stream additionally drops one comparator observed exchanging in a
// certified run of prog. It draws from its own PRNG so the other
// operators' sites do not depend on it; a program that does not
// certify yields none (its live set is unknown).
func brokenPrunes(prog *schedule.Program, n int, seed int64) []Mutant {
	res, err := Run(prog, Options{Workers: 1, SampleVectors: 1 << 12, Seed: seed})
	if err != nil || !res.Certified {
		return nil
	}
	dead := make(map[[2]int]bool, len(res.Dead))
	for _, d := range res.Dead {
		dead[[2]int{d.Op, d.Pair}] = true
	}
	lay := newLayout(prog)
	index := prog.ExecutedIndex()
	var live []int // positions in index of live executed comparators
	for k, f := range index {
		if c := lay.comps[f]; !dead[[2]int{c.op, c.pair}] {
			live = append(live, k)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))
	var out []Mutant
	for m := 0; m < n && len(live) > 0; m++ {
		k := live[rng.Intn(len(live))]
		c := lay.comps[index[k]]
		out = append(out, Mutant{
			Name:     fmt.Sprintf("broken-prune@op%d.%d", c.op, c.pair),
			Operator: "broken-prune",
			Prog:     withoutExecuted(prog, index, k),
		})
	}
	return out
}

// brokenStages returns up to n programs with prog's ops whose executed
// stream additionally drops one comparator of a merge stage (k ≥ 3)
// that swaps on some sorted 0-1 tuple of its stage in a certified
// staged run of prog. Each is named "broken-stage@merge<k>.op<i>.<j>",
// and the staged certificate must reject it in merge k, naming that
// comparator. It draws from its own PRNG; a program without a staged
// certificate yields none.
func brokenStages(prog *schedule.Program, n int, seed int64) []Mutant {
	rep, err := schedule.CertifyStages(prog, nil, 1)
	if err != nil || !rep.Certified {
		return nil
	}
	lay := newLayout(prog)
	index := prog.ExecutedIndex()
	stageOf := make([]int, len(lay.comps))
	for _, st := range rep.Stages {
		for f := st.First; f < st.End; f++ {
			stageOf[f] = st.K
		}
	}
	var live []int // positions in index of executed merge comparators that swap
	for k, f := range index {
		if stageOf[f] >= 3 && rep.Live[f] {
			live = append(live, k)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x57A6E))
	var out []Mutant
	for m := 0; m < n && len(live) > 0; m++ {
		k := live[rng.Intn(len(live))]
		c := lay.comps[index[k]]
		out = append(out, Mutant{
			Name:     fmt.Sprintf("broken-stage@merge%d.op%d.%d", stageOf[index[k]], c.op, c.pair),
			Operator: "broken-stage",
			Prog:     withoutExecuted(prog, index, k),
		})
	}
	return dedupeMutants(out)
}

// withoutExecuted returns prog with the executed stream index minus its
// k-th comparator.
func withoutExecuted(prog *schedule.Program, index []int32, k int) *schedule.Program {
	keep := append(append([]int32(nil), index[:k]...), index[k+1:]...)
	slices.Sort(keep) // WithExecuted takes the set in program order
	mp, err := prog.WithExecuted(keep)
	if err != nil {
		panic(fmt.Sprintf("cert: executed-stream mutant invalid: %v", err))
	}
	return mp
}

// cloneOps deep-copies an op list (ops and their pair slices) so a
// mutation never aliases the base program.
func cloneOps(ops []schedule.Op) []schedule.Op {
	out := make([]schedule.Op, len(ops))
	copy(out, ops)
	for i := range out {
		if out[i].Pairs != nil {
			pairs := make([][2]int, len(out[i].Pairs))
			copy(pairs, out[i].Pairs)
			out[i].Pairs = pairs
		}
	}
	return out
}

// unusedNode picks a node id the phase does not touch.
func unusedNode(pairs [][2]int, nodes int, rng *rand.Rand) (int, bool) {
	used := make(map[int]bool, 2*len(pairs))
	for _, pr := range pairs {
		used[pr[0]] = true
		used[pr[1]] = true
	}
	if len(used) >= nodes {
		return 0, false
	}
	for {
		v := rng.Intn(nodes)
		if !used[v] {
			return v, true
		}
	}
}

// dedupeMutants removes repeats of the same mutation site (the PRNG may
// land on the same spot twice).
func dedupeMutants(ms []Mutant) []Mutant {
	seen := make(map[string]bool, len(ms))
	out := ms[:0]
	for _, m := range ms {
		if seen[m.Name] {
			continue
		}
		seen[m.Name] = true
		out = append(out, m)
	}
	return out
}
