package cert

import (
	"testing"

	"productsort/internal/schedule"
	"productsort/internal/simnet"
)

// The oracle is an independent, naive evaluator of the schedule IR used
// to judge the certifier: plain integer compare-exchange, one vector at
// a time, no bit tricks. Any disagreement between the bitsliced engine
// and this oracle is a certifier bug.

// oracleReplay runs prog over one 0-1 vector (snake order) and returns
// the output in snake order.
func oracleReplay(prog *schedule.Program, vec []byte) []int {
	out, _ := oracleRun(prog, vec, oracleDropped(prog))
	return out
}

// oracleDropped marks, per exchange pair of the ops in execution order,
// whether prog's executed stream drops it.
func oracleDropped(prog *schedule.Program) []bool {
	dropped := make([]bool, prog.Size())
	for i := range dropped {
		dropped[i] = true
	}
	for _, f := range prog.ExecutedIndex() {
		dropped[f] = false
	}
	return dropped
}

// oracleRun replays every exchange pair of the ops over vec and returns
// the output in snake order, plus whether some comparator the executed
// stream drops exchanged — a place where the executed stream departs
// from the ops.
func oracleRun(prog *schedule.Program, vec []byte, dropped []bool) (out []int, liveDrop bool) {
	net := prog.Net()
	n := net.Nodes()
	keys := make([]int, n)
	for p := 0; p < n; p++ {
		keys[net.NodeAtSnake(p)] = int(vec[p])
	}
	flat := 0
	for _, op := range prog.Ops() {
		if op.Kind != schedule.OpCompareExchange && op.Kind != schedule.OpRoutedExchange {
			continue
		}
		for _, pr := range op.Pairs {
			if keys[pr[0]] > keys[pr[1]] {
				liveDrop = liveDrop || dropped[flat]
				keys[pr[0]], keys[pr[1]] = keys[pr[1]], keys[pr[0]]
			}
			flat++
		}
	}
	out = make([]int, n)
	for p := 0; p < n; p++ {
		out[p] = keys[net.NodeAtSnake(p)]
	}
	return out, liveDrop
}

// oracleSorts reports whether the certifier must accept prog on the
// one 0-1 vector: the ops sort it and no dropped comparator exchanges.
func oracleSorts(prog *schedule.Program, vec []byte) bool {
	return oracleAccepts(prog, vec, oracleDropped(prog))
}

func oracleAccepts(prog *schedule.Program, vec []byte, dropped []bool) bool {
	out, liveDrop := oracleRun(prog, vec, dropped)
	for p := 1; p < len(out); p++ {
		if out[p] < out[p-1] {
			return false
		}
	}
	return !liveDrop
}

// oracleSortsAll exhaustively checks all 2^n 0-1 vectors — by the 0-1
// principle, the ground truth for "this program sorts" (and, for its
// executed stream, "drops only comparators that never exchange").
func oracleSortsAll(t *testing.T, prog *schedule.Program) bool {
	t.Helper()
	n := prog.Net().Nodes()
	if n > 20 {
		t.Fatalf("oracle is for small networks; %d keys is too many", n)
	}
	dropped := oracleDropped(prog)
	vec := make([]byte, n)
	for v := 0; v < 1<<n; v++ {
		for p := 0; p < n; p++ {
			vec[p] = byte((v >> p) & 1)
		}
		if !oracleAccepts(prog, vec, dropped) {
			return false
		}
	}
	return true
}

// TestOracleMatchesExecBackend ties the oracle's (and hence the
// certifier's) reading of the IR to the real replay backend: both must
// produce identical outputs for identical 0-1 inputs.
func TestOracleMatchesExecBackend(t *testing.T) {
	prog := compileHypercube(t, 3)
	net := prog.Net()
	n := net.Nodes()
	vec := make([]byte, n)
	for v := 0; v < 1<<n; v++ {
		for p := 0; p < n; p++ {
			vec[p] = byte((v >> p) & 1)
		}
		keys := make([]simnet.Key, n)
		for p := 0; p < n; p++ {
			keys[net.NodeAtSnake(p)] = simnet.Key(vec[p])
		}
		if _, err := (schedule.ExecBackend{}).Run(prog, keys); err != nil {
			t.Fatal(err)
		}
		want := oracleReplay(prog, vec)
		for p := 0; p < n; p++ {
			if int(keys[net.NodeAtSnake(p)]) != want[p] {
				t.Fatalf("vector %0*b: backend and oracle disagree at snake pos %d", n, v, p)
			}
		}
	}
}

// oracleStageMerges reports whether merge k of prog — its exchange ops
// between the merge marker for k and the next marker — takes every
// tuple of sorted 0-1 slabs to blocks sorted in their snake order. It
// replays one tuple at a time in node space, reading the layouts
// straight from the network, independently of the staged pass.
func oracleStageMerges(prog *schedule.Program, k int) bool {
	net := prog.Net()
	in, out := make([]int, k-1), make([]int, k)
	for i := range out {
		out[i] = i + 1
	}
	copy(in, out)
	var pairs [][2]int
	cur := 2
	for _, op := range prog.Ops() {
		switch op.Kind {
		case schedule.OpMergeMarker:
			cur = op.Dim
		case schedule.OpCompareExchange, schedule.OpRoutedExchange:
			if cur == k {
				pairs = append(pairs, op.Pairs...)
			}
		}
	}
	m, slabs, n := net.BlockSize(in), net.Radix(k), net.Nodes()
	z := make([]int, slabs)
	keys := make([]int, n)
	for {
		for node := range keys {
			keys[node] = 0
			if net.BlockSnakePos(node, in) >= z[net.Digit(node, k)] {
				keys[node] = 1
			}
		}
		for _, pr := range pairs {
			if keys[pr[0]] > keys[pr[1]] {
				keys[pr[0]], keys[pr[1]] = keys[pr[1]], keys[pr[0]]
			}
		}
		for _, base := range net.BlockBases(out) {
			for p := 1; p < net.BlockSize(out); p++ {
				if keys[net.NodeInBlock(base, out, p-1)] > keys[net.NodeInBlock(base, out, p)] {
					return false
				}
			}
		}
		u := 0
		for ; u < slabs; u++ { // next tuple, odometer order
			if z[u]++; z[u] <= m {
				break
			}
			z[u] = 0
		}
		if u == slabs {
			return true
		}
	}
}
