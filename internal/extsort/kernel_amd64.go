// amd64 dispatch for the 2-way merge: on hosts whose columnar kernel
// runs AVX-512F (schedule.KernelName, the one CPU probe) the merge runs
// the in-register bitonic merger of kernel_amd64.s, eight keys a step;
// otherwise the branch-free scalar body of kernel.go runs. Both produce
// the identical output (pinned by TestMergeBodiesMatchScalar).

package extsort

import "productsort/internal/schedule"

// mergeStepsAVX512 is implemented in kernel_amd64.s. From the carry and
// the first na keys at a and nb at b it emits up to steps blocks of 8
// merged keys at out, one per step, while both inputs still hold at
// least 8 keys, and returns how many keys it consumed from each input;
// the carry goes in and out through carry.
//
//go:noescape
func mergeStepsAVX512(out, a, b *Key, na, nb, steps int, carry *[8]Key) (da, db int)

// vectorMerge reports whether merge2 runs the AVX-512 body.
var vectorMerge = schedule.KernelName() == "avx512"

// mergeCallSteps bounds one call into assembly to 512 steps, 4096
// emitted keys, so a merging goroutine reaches a preemption point every
// few microseconds and never stalls a stop-the-world for a whole merge.
const mergeCallSteps = 512

// merge2 merges the sorted a and b into out, which must hold exactly
// len(a)+len(b) keys.
func merge2(out, a, b []Key) {
	if vectorMerge {
		mergeAVX512(out, a, b, mergeCallSteps)
		return
	}
	mergeScalar(out, a, b)
}

// mergeAVX512 is merge2's AVX-512 body, calling into assembly at most
// callSteps steps at a time. The carry starts as a's first 8 keys.
// Every step emits the 8 smallest keys of the carry and the block it
// loads, which are the 8 smallest keys not yet emitted: every carry
// key from an input is at most that input's head, and the block comes
// from the input with the smaller head. So every emitted key is at
// most every key not yet emitted (THEORY.md §15), and once either
// input has fewer than 8 keys left, a scalar merge of the carry and
// the two tails finishes the output.
func mergeAVX512(out, a, b []Key, callSteps int) {
	if len(a) < 8 || len(b) < 8 {
		mergeScalar(out, a, b)
		return
	}
	var carry [8]Key
	copy(carry[:], a)
	ia, ib := 8, 0
	for len(a)-ia >= 8 && len(b)-ib >= 8 {
		da, db := mergeStepsAVX512(&out[ia+ib-8], &a[ia], &b[ib], len(a)-ia, len(b)-ib, callSteps, &carry)
		ia += da
		ib += db
	}
	short, long := a[ia:], b[ib:]
	if len(short) >= 8 {
		short, long = long, short
	}
	var head [15]Key
	n := 8 + len(short)
	mergeScalar(head[:n], carry[:], short)
	mergeScalar(out[ia+ib-8:], head[:n], long)
}
