//go:build !amd64

package schedule

import "productsort/internal/simnet"

// KernelName names the body that replays batches: the scalar loop on
// every port without a vector body.
func KernelName() string { return "scalar" }

// laneStride is the column stride of a width-set slab: unpadded, since
// the scalar loop gains nothing from line-aligned columns.
func laneStride(width int) int { return width }

// runComparators on non-amd64 ports is the portable BCE-clean scalar
// loop; the columnar layout already buys the cache behaviour, and the
// compiler's conditional-move lowering keeps the loop branchless.
func runComparators(slab []simnet.Key, comps []Comparator, _ []int32, width int) {
	applyComparators(slab, comps, width)
}

// exchangeBits is the staged pass's 0-1 comparator: the scalar loop on
// every port without a vector body.
func exchangeBits(a, b []uint64) uint64 { return exchangeWords(a, b) }

// swapBits is the staged pass's probe: the scalar loop on every port
// without a vector body.
func swapBits(a, b []uint64) uint64 { return swaps(a, b) }
