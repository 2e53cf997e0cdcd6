//go:build !amd64

package extsort

// merge2 merges the sorted a and b into out, which must hold exactly
// len(a)+len(b) keys: the branch-free scalar body on every port
// without a vector body.
func merge2(out, a, b []Key) {
	mergeScalar(out, a, b)
}
