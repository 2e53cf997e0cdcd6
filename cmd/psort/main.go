// Command psort sorts a workload on a chosen product network with the
// generalized multiway-merge algorithm and reports the parallel cost.
//
// Usage examples:
//
//	psort -network grid -n 4 -r 3
//	psort -network hypercube -r 8 -workload reverse
//	psort -network mct -levels 3 -r 2 -engine shearsort -v
//	psort -network petersen -r 2 -spmd
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"productsort"
	"productsort/internal/cli"
	"productsort/internal/workload"
)

func main() {
	nf := cli.RegisterNetworkFlags(nil)
	var (
		wl       = flag.String("workload", "uniform", fmt.Sprintf("one of %v", workload.Names()))
		seed     = flag.Int64("seed", 1, "workload seed")
		engine   = flag.String("engine", "auto", "S2 engine: auto | shearsort | snake-oet | opt4")
		spmdMode = flag.Bool("spmd", false, "run the fully concurrent SPMD engine afterwards and cross-check")
		verbose  = flag.Bool("v", false, "print keys before/after")
		trace    = flag.Bool("trace", false, "render machine state after each stage (r ≤ 3 grids)")
		maxPrint = flag.Int("maxprint", 64, "max keys to print with -v")
		block    = flag.Int("block", 0, "also run the blocked sort with this many keys per processor")
		batch    = flag.Int("batch", 0, "also sort this many independent key sets through the one compiled program")
		workers  = flag.Int("workers", 0, "worker pool size for -batch (0 = auto)")
	)
	flag.Parse()

	nw, err := nf.Build()
	if err != nil {
		fail(err)
	}
	gen, err := workload.ByName(*wl)
	if err != nil {
		fail(err)
	}
	keys := gen(nw.Nodes(), *seed)

	opts := []productsort.Option{productsort.WithEngine(*engine)}
	if *trace {
		opts = append(opts, productsort.WithObserver(func(stage string, snakeKeys []productsort.Key) {
			fmt.Printf("--- %s ---\n%s", stage, nw.Render(snakeKeys))
		}))
	}
	s, err := productsort.NewSorter(opts...)
	if err != nil {
		fail(err)
	}
	if *verbose {
		printKeys("input (snake order)", keys, *maxPrint)
	}
	res, err := s.Sort(nw, keys)
	if err != nil {
		fail(err)
	}
	if *verbose {
		printKeys("output (snake order)", res.Keys, *maxPrint)
	}

	fmt.Printf("network            %s (%d nodes, %d edges, diameter %d)\n", nw.Name(), nw.Nodes(), nw.Edges(), nw.Diameter())
	fmt.Printf("factor             N=%d, hamiltonian-labeled=%v\n", nw.FactorSize(), nw.HamiltonianFactor())
	fmt.Printf("engine             %s\n", res.Engine)
	fmt.Printf("sorted             %v\n", productsort.IsSorted(res.Keys))
	fmt.Printf("rounds             %d (S2 %d + sweeps %d)\n", res.Rounds, res.S2Rounds, res.SweepRounds)
	fmt.Printf("S2 phases          %d  (Theorem 1: (r-1)^2 = %d)\n", res.S2Phases, (nw.Dims()-1)*(nw.Dims()-1))
	fmt.Printf("sweep phases       %d  (Theorem 1: (r-1)(r-2) = %d)\n", res.Sweeps, (nw.Dims()-1)*(nw.Dims()-2))
	fmt.Printf("routed phases      %d\n", res.RoutedPhases)
	if pred, err := nw.PredictedRounds(*engine); err == nil && nw.HamiltonianFactor() {
		fmt.Printf("predicted rounds   %d (Theorem 1 with R=1)\n", pred)
	}
	if *block > 0 {
		sched, err := productsort.ExtractSchedule(nw, *engine)
		if err != nil {
			fail(err)
		}
		blockKeys := gen(nw.Nodes()*(*block), *seed+1)
		st, err := sched.SortBlocks(blockKeys, *block)
		if err != nil {
			fail(err)
		}
		fmt.Printf("block sort         %d keys (%d/processor): rounds=%d sorted=%v\n",
			len(blockKeys), *block, st.Rounds, productsort.IsSorted(blockKeys))
	}
	if *batch > 0 {
		c, err := s.Compile(nw)
		if err != nil {
			fail(err)
		}
		sets := make([][]productsort.Key, *batch)
		for i := range sets {
			sets[i] = gen(nw.Nodes(), *seed+int64(i)+2)
		}
		start := time.Now()
		if err := c.SortBatch(sets, *workers); err != nil {
			fail(err)
		}
		elapsed := time.Since(start)
		sorted := true
		for _, set := range sets {
			if !productsort.IsSorted(set) {
				sorted = false
				break
			}
		}
		fmt.Printf("batch              %d sets × %d keys via cached program: %v total, %v/set, all-sorted=%v\n",
			*batch, nw.Nodes(), elapsed.Round(time.Microsecond),
			(elapsed / time.Duration(*batch)).Round(time.Microsecond), sorted)
	}
	if *spmdMode {
		mp, err := productsort.SortMessagePassing(nw, keys)
		if err != nil {
			fail(err)
		}
		agree := true
		for i := range mp.Keys {
			if mp.Keys[i] != res.Keys[i] {
				agree = false
				break
			}
		}
		fmt.Printf("spmd engine        messages=%d relays=%d agrees-with-simulator=%v\n",
			mp.Messages, mp.Relays, agree)
	}
}

func printKeys(label string, keys []productsort.Key, max int) {
	fmt.Printf("%s:", label)
	for i, k := range keys {
		if i >= max {
			fmt.Printf(" … (%d more)", len(keys)-max)
			break
		}
		fmt.Printf(" %d", k)
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "psort:", err)
	os.Exit(1)
}
