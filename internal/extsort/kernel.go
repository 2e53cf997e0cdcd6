// The scalar 2-way merge body. This file is the subject of the
// extsort half of the `make bce` gate: it is compiled with
// -d=ssa/check_bce and the build fails if the compiler reports an
// IsInBounds check anywhere in it, so the merge loop below must stay
// free of per-element bounds checks. (The tail copies carry
// IsSliceInBounds checks, once per call.) Keep this file free of
// anything but the scalar body so the gate stays a precise statement
// about the hot loop.

package extsort

// mergeScalar merges the sorted a and b into out, which must hold
// exactly len(a)+len(b) keys. It is the reference every merge body is
// pinned against and the body that runs on hosts without AVX-512. The
// loop is branch-free: the comparison picks the smaller head with a
// flag, not a jump, so random keys cost no mispredictions. Ties take
// a's key first; keys carry no payload, so that cannot change the
// output.
func mergeScalar(out, a, b []Key) {
	var i, j uint
	k := 0
	for ; k < len(out) && i < uint(len(a)) && j < uint(len(b)); k++ {
		x, y := a[i], b[j]
		t := uint(b2i(y < x))
		out[k] = min(x, y)
		i += 1 - t
		j += t
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// b2i is 1 for true and 0 for false; it compiles to a flag set, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
