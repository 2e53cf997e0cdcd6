// amd64 dispatch for the columnar kernel: the comparator stream runs
// through the widest vector body the CPU and OS support — AVX-512F
// (eight sets per VPMINSQ/VPMAXSQ step) or AVX2 (four per
// VPCMPGTQ/VPBLENDVB step), both in kernel_amd64.s; otherwise, and on
// every other GOARCH, the portable BCE-clean loop in kernel.go runs.
// Every body computes the identical result (pinned by
// TestKernelBodiesMatchScalar), so everything proved about the scalar
// replay — certification included — carries over.

package schedule

import "productsort/internal/simnet"

// applyComparatorsAVX512 and applyComparatorsAVX2 are implemented in
// kernel_amd64.s.
//
//go:noescape
func applyComparatorsAVX512(slab *simnet.Key, comps *Comparator, n, width int)

//go:noescape
func applyComparatorsAVX2(slab *simnet.Key, comps *Comparator, n, width int)

// cpuid and xgetbv0 are implemented in kernel_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// The vector bodies a host may dispatch, widest last.
const (
	bodyScalar = iota
	bodyAVX2
	bodyAVX512
)

// kernelBody is the one-time CPU/OS capability probe's answer.
var kernelBody = detectBody()

// detectBody reports the widest vector body that may run: AVX-512F in
// hardware with opmask and ZMM state enabled by the OS (XCR0 bits
// 1|2|5|6|7), else AVX2 with YMM state enabled (XCR0 bits 1|2), else
// none.
func detectBody() int {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return bodyScalar
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return bodyScalar
	}
	xcr0, _ := xgetbv0()
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	switch {
	case ebx7&avx512f != 0 && xcr0&0xE6 == 0xE6:
		return bodyAVX512
	case ebx7&avx2 != 0 && xcr0&0x6 == 0x6:
		return bodyAVX2
	}
	return bodyScalar
}

// KernelName names the body that replays batches of at least four
// sets on this host: "avx512", "avx2" or "scalar".
func KernelName() string {
	return [...]string{bodyScalar: "scalar", bodyAVX2: "avx2", bodyAVX512: "avx512"}[kernelBody]
}

// laneStride returns the column stride of a width-set slab: a vector
// body's columns are padded to whole 64-byte lines, since a column
// that starts mid-line splits every vector load and store (at K₂¹⁰,
// 85 sets cost ~40% more per lane than 88). Narrow batches stay
// unpadded, where the masked tail is the cheaper fix.
func laneStride(width int) int {
	if kernelBody != bodyScalar && width >= 8 {
		return (width + 7) &^ 7
	}
	return width
}

// runComparators dispatches one columnar replay to the widest body
// available, one bounded chunk (ends, from chunkEnds) per call into
// assembly so the goroutine reaches a preemption point between chunks.
// Widths below four sets gain nothing from the call into assembly, so
// they stay on the scalar loop.
func runComparators(slab []simnet.Key, comps []Comparator, ends []int32, width int) {
	if kernelBody == bodyScalar || width < 4 || len(comps) == 0 {
		applyComparators(slab, comps, width)
		return
	}
	start := 0
	for _, end := range ends {
		n := int(end) - start
		if kernelBody == bodyAVX512 {
			applyComparatorsAVX512(&slab[0], &comps[start], n, width)
		} else {
			applyComparatorsAVX2(&slab[0], &comps[start], n, width)
		}
		start = int(end)
	}
}
