// Petersen: sort on the Petersen cube, tracing the algorithm's stages
// with an observer, then sort the same keys again with the SPMD engine
// — one goroutine per processor, every key crossing a physical edge —
// and check that both runs agree.
package main

import (
	"fmt"
	"log"
	"slices"

	"productsort"
	"productsort/internal/workload"
)

func main() {
	nw, err := productsort.PetersenCube(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d processors, degree-6, diameter %d\n\n", nw.Name(), nw.Nodes(), nw.Diameter())

	s, err := productsort.NewSorter(
		productsort.WithObserver(func(stage string, keys []productsort.Key) {
			fmt.Printf("stage: %-55s first keys now %v\n", stage, keys[:8])
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	keys := workload.OrganPipe(nw.Nodes(), 0)
	res, err := s.Sort(nw, keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsorted=%v rounds=%d (S2 phases %d, sweeps %d)\n",
		productsort.IsSorted(res.Keys), res.Rounds, res.S2Phases, res.Sweeps)

	mp, err := productsort.SortMessagePassing(nw, keys)
	if err != nil {
		log.Fatal(err)
	}
	if !slices.Equal(mp.Keys, res.Keys) {
		log.Fatal("message-passing engine disagrees with the simulator")
	}
	fmt.Printf("message passing: %d messages over physical edges (%d relays), keys agree with the simulator\n",
		mp.Messages, mp.Relays)
}
