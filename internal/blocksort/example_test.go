package blocksort_test

import (
	"fmt"

	"productsort/internal/blocksort"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
)

// Sorting many more keys than processors: the schedule's round count is
// unchanged; each round moves one block per exchange.
func ExampleSort() {
	prog, err := schedule.Compile(product.MustNew(graph.Path(3), 2), nil) // 9 processors
	if err != nil {
		panic(err)
	}
	keys := make([]blocksort.Key, 9*4) // 4 keys per processor
	for i := range keys {
		keys[i] = blocksort.Key(len(keys) - i)
	}
	st, err := blocksort.Sort(prog, keys, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println(keys[:6], "...", keys[30:])
	fmt.Println("rounds:", st.Rounds == prog.Clock().ComparePhases)
	// Output:
	// [1 2 3 4 5 6] ... [31 32 33 34 35 36]
	// rounds: true
}
