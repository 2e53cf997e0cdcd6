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
