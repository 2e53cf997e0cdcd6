// Counterexample minimization: shrink a failing 0-1 vector to a
// minimal witness (fewest ones, then lexicographically least in snake
// order) and localize the first op that breaks sorted structure.

package cert

// sortsVector replays the program's executed stream over one 0-1
// vector (scalar replay, one byte per node) and reports whether the
// output is sorted along the snake and the executed stream agreed with
// the unpruned ops. failPos is the first snake position p with
// output[p] = 1 and output[p+1] = 0 (-1 when sorted); liveDrop is the
// flattened index of the first dropped comparator that would have
// exchanged (-1 when none did).
func (lay *layout) sortsVector(vec []byte) (ok bool, failPos, liveDrop int) {
	state := make([]byte, lay.n)
	for p, node := range lay.snake {
		state[node] = vec[p]
	}
	liveDrop = -1
	for k := range lay.comps {
		c := &lay.comps[k]
		a, b := state[c.lo], state[c.hi]
		if lay.probe[k] {
			if a > b && liveDrop < 0 {
				liveDrop = k
			}
			continue
		}
		state[c.lo] = a & b
		state[c.hi] = a | b
	}
	failPos = -1
	for p := 0; p+1 < lay.n; p++ {
		if state[lay.snake[p]] > state[lay.snake[p+1]] {
			failPos = p
			break
		}
	}
	return failPos < 0 && liveDrop < 0, failPos, liveDrop
}

// fails is the minimizer's predicate.
func (lay *layout) fails(vec []byte) bool {
	ok, _, _ := lay.sortsVector(vec)
	return !ok
}

// minimize shrinks a failing vector in place to a 1-minimal witness:
// first greedily clear ones (any single remaining 1 is then
// load-bearing), then slide the surviving ones toward higher snake
// positions for the lexicographically least failing vector of that
// weight reachable by single-bit moves. Both passes preserve failure,
// so the result is always a genuine counterexample.
func (lay *layout) minimize(vec []byte) []byte {
	if !lay.fails(vec) {
		return vec // not a counterexample; nothing to shrink
	}
	for pass := 0; pass < lay.n; pass++ {
		changed := false
		// Drop pass: clear every 1 that is not needed for failure.
		for p := 0; p < lay.n; p++ {
			if vec[p] == 0 {
				continue
			}
			vec[p] = 0
			if lay.fails(vec) {
				changed = true
			} else {
				vec[p] = 1
			}
		}
		// Lex pass: a 1 moved to a later position makes the vector
		// lexicographically smaller; take the latest landing spot that
		// still fails.
		for p := 0; p < lay.n; p++ {
			if vec[p] == 0 {
				continue
			}
			for q := lay.n - 1; q > p; q-- {
				if vec[q] == 1 {
					continue
				}
				vec[p], vec[q] = 0, 1
				if lay.fails(vec) {
					changed = true
					break
				}
				vec[p], vec[q] = 1, 0
			}
		}
		if !changed {
			break
		}
	}
	return vec
}

// buildWitness minimizes vec and assembles the full witness report.
func buildWitness(lay *layout, vec []byte) *Witness {
	vec = lay.minimize(vec)
	_, failPos, liveDrop := lay.sortsVector(vec)
	ones := 0
	for _, v := range vec {
		ones += int(v)
	}
	// 1-minimality holds by the drop pass's fixpoint; re-verify
	// defensively so the flag never lies.
	minimal := true
	for p := 0; p < lay.n && minimal; p++ {
		if vec[p] == 0 {
			continue
		}
		vec[p] = 0
		if lay.fails(vec) { // still fails with this 1 cleared: not minimal
			minimal = false
		}
		vec[p] = 1
	}
	w := &Witness{
		Vector:  vec,
		Ones:    ones,
		FailPos: failPos,
		BreakOp: lay.breakOp(vec),
		Minimal: minimal,
	}
	if liveDrop >= 0 {
		w.LiveDrop = lay.dead(liveDrop)
	}
	return w
}

// breakOp replays vec through the executed stream and returns the
// first op index (round-consuming exchange ops only) at which the
// sorted-prefix metric — the length of the longest output prefix, in
// snake order, already holding its final sorted value — strictly
// decreases, or -1 when the metric never decreases (the replay then
// merely stalls short of a full prefix).
func (lay *layout) breakOp(vec []byte) int {
	n := lay.n
	ones := 0
	for _, v := range vec {
		ones += int(v)
	}
	// target[p] is the sorted output: n-ones zeros then ones ones.
	target := make([]byte, n)
	for p := n - ones; p < n; p++ {
		target[p] = 1
	}
	state := make([]byte, n)
	for p, node := range lay.snake {
		state[node] = vec[p]
	}
	prefix := func() int {
		for p := 0; p < n; p++ {
			if state[lay.snake[p]] != target[p] {
				return p
			}
		}
		return n
	}
	prev := prefix()
	for k := range lay.comps {
		c := &lay.comps[k]
		if lay.probe[k] {
			continue
		}
		a, b := state[c.lo], state[c.hi]
		state[c.lo] = a & b
		state[c.hi] = a | b
		cur := prefix()
		if cur < prev {
			return c.op
		}
		prev = cur
	}
	return -1
}
