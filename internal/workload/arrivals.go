// Arrival processes and request-size distributions for serving
// experiments: open-loop load for cmd/bench -mode serve. Deterministic under
// a fixed seed, like the key generators.

package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// PoissonArrivals returns n inter-arrival gaps of a Poisson process
// with the given mean rate (requests per second): exponentially
// distributed, deterministic under seed. gaps[i] is the wait before
// request i; a sender walks next = next + gaps[i].
func PoissonArrivals(n int, perSec float64, seed int64) []time.Duration {
	if n < 0 || perSec <= 0 {
		panic(fmt.Sprintf("workload: PoissonArrivals(%d, %g)", n, perSec))
	}
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]time.Duration, n)
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64() / perSec * float64(time.Second))
	}
	return gaps
}

// ZipfSizes returns n request sizes in [min, max] drawn from a Zipf
// distribution with exponent s > 1: mostly small requests with a heavy
// tail of large ones, the shape multi-tenant sort traffic has.
// Deterministic under seed.
func ZipfSizes(n, min, max int, s float64, seed int64) []int {
	if n < 0 || min < 1 || max < min || s <= 1 {
		panic(fmt.Sprintf("workload: ZipfSizes(%d, %d, %d, %g)", n, min, max, s))
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(max-min))
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = min + int(z.Uint64())
	}
	return sizes
}
