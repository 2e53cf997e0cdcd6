package productsort_test

import (
	"context"
	"fmt"

	"productsort"
)

// The simplest use: build a network, hand it one key per processor, get
// back the keys in sorted snake order plus the parallel cost.
func ExampleSort() {
	nw, _ := productsort.Grid(3, 2) // 3×3 grid, 9 processors
	keys := []productsort.Key{5, 3, 8, 1, 9, 2, 7, 4, 6}
	res, _ := productsort.Sort(nw, keys)
	fmt.Println(res.Keys)
	fmt.Println(res.Rounds, "rounds")
	// Output:
	// [1 2 3 4 5 6 7 8 9]
	// 15 rounds
}

// The hypercube is the N=2 instance; its cost matches the paper's
// closed form 3(r-1)² + (r-1)(r-2) exactly.
func ExampleHypercube() {
	nw, _ := productsort.Hypercube(5) // 32 processors
	keys := make([]productsort.Key, 32)
	for i := range keys {
		keys[i] = productsort.Key(31 - i)
	}
	res, _ := productsort.Sort(nw, keys)
	r := nw.Dims()
	fmt.Println(res.Rounds == 3*(r-1)*(r-1)+(r-1)*(r-2))
	// Output:
	// true
}

// Custom factors: any connected graph works. A 5-cycle given with
// scrambled labels still sorts; relabeling along a Hamiltonian path
// removes the routed phases.
func ExampleCustom() {
	edges := [][2]int{{0, 2}, {2, 4}, {4, 1}, {1, 3}, {3, 0}}
	nw, _ := productsort.Custom("scrambled-c5", 5, edges, 2)
	relabeled, ok := productsort.RelabelHamiltonian(nw)
	fmt.Println(ok, relabeled.HamiltonianFactor())
	// Output:
	// true true
}

// Schedules make the obliviousness concrete: extract once, replay on
// any data, or sort blocks with the same number of parallel rounds.
func ExampleExtractSchedule() {
	nw, _ := productsort.Hypercube(4)
	sched, _ := productsort.ExtractSchedule(nw, "auto")
	keys := make([]productsort.Key, 16*8) // 8 keys per processor
	for i := range keys {
		keys[i] = productsort.Key(len(keys) - i)
	}
	st, _ := sched.SortBlocks(keys, 8)
	fmt.Println(productsort.IsSorted(keys), st.Rounds == sched.Depth())
	// Output:
	// true true
}

// A schedule is an ordinary sorting network: extract once, apply to any
// slice.
func ExampleSchedule_Apply() {
	nw, _ := productsort.Hypercube(3) // 8 processors
	sched, _ := productsort.ExtractSchedule(nw, "auto")
	keys := []productsort.Key{7, 3, 5, 1, 6, 2, 4, 0}
	sched.Apply(keys)
	fmt.Println(keys)
	fmt.Println(sched.Inputs(), "inputs,", sched.Size(), "comparators")
	// Output:
	// [0 1 2 3 4 5 6 7]
	// 8 inputs, 52 comparators
}

// PredictedRounds evaluates Theorem 1 for a network and engine without
// running the sort.
func ExampleNetwork_PredictedRounds() {
	nw, _ := productsort.Grid(4, 3)
	pred, _ := nw.PredictedRounds("shearsort")
	fmt.Println(pred) // (3-1)²·(2·2+1)·4 + (3-1)(3-2)·1
	// Output:
	// 82
}

// Rectangular grids (the heterogeneous extension): mixed side lengths,
// same algorithm, exact cost prediction.
func ExampleRectGrid() {
	nw, _ := productsort.RectGrid(4, 2) // 4 wide, 2 tall
	keys := []productsort.Key{7, 0, 5, 2, 6, 1, 4, 3}
	res, _ := productsort.Sort(nw, keys)
	fmt.Println(res.Keys)
	fmt.Print(nw.Render(res.Keys)) // snake layout: second row reversed
	// Output:
	// [0 1 2 3 4 5 6 7]
	// 0 1 2 3
	// 7 6 5 4
}

// Serving: a Server sorts requests of any admissible size by batching
// them onto compiled networks. SortKeys is the synchronous form; Submit
// returns a reply channel for pipelined callers.
func ExampleServer() {
	srv, _ := productsort.NewServer(productsort.ServerConfig{MaxKeys: 64})
	defer srv.Close(context.Background())
	sorted, _ := srv.SortKeys(context.Background(), []productsort.Key{9, 1, 8, 2, 7, 3})
	fmt.Println(sorted)
	// Output:
	// [1 2 3 7 8 9]
}

// The paper's multiway merge as an ordinary slice procedure.
func ExampleMergeSorted() {
	merged, _ := productsort.MergeSorted([][]productsort.Key{
		{1, 4, 7, 9},
		{2, 3, 8, 8},
	})
	fmt.Println(merged)
	// Output:
	// [1 2 3 4 7 8 8 9]
}
