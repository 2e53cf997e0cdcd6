package schedule

import (
	"math"
	"testing"

	"productsort/internal/simnet"
)

// TestKernelBodiesMatchScalar pins every assembly body bit-for-bit
// against the portable scalar loop, calling each directly (a body the
// CPU lacks is skipped). Widths 1..40 cover every masked-tail length of
// both the four- and the eight-lane body, alone and after whole
// vectors, with MinInt64, MaxInt64 (the Sentinel) and duplicates in the
// mix, since the vector compares must behave exactly like the signed
// < of the Go loop.
func TestKernelBodiesMatchScalar(t *testing.T) {
	for _, body := range []struct {
		name  string
		level int
		run   func(slab *simnet.Key, comps *Comparator, n, width int)
	}{
		{"avx2", bodyAVX2, applyComparatorsAVX2},
		{"avx512", bodyAVX512, applyComparatorsAVX512},
	} {
		t.Run(body.name, func(t *testing.T) {
			if kernelBody < body.level {
				t.Skipf("no %s on this host", body.name)
			}
			comps := []Comparator{{0, 1}, {2, 3}, {1, 2}, {0, 3}, {0, 1}, {2, 3}, {1, 2}, {3, 0}}
			const nodes = 4
			x := uint64(99)
			for width := 1; width <= 40; width++ {
				// One spare column past the slab catches a store
				// that leaks out of the last column's mask.
				ref := make([]simnet.Key, (nodes+1)*width)
				for i := range ref[:nodes*width] {
					x = x*2862933555777941757 + 3037000493
					switch x % 6 {
					case 0:
						ref[i] = Sentinel
					case 1:
						ref[i] = simnet.Key(-(x % 1000))
					case 2:
						ref[i] = math.MinInt64
					case 3:
						ref[i] = 7 // duplicates
					default:
						ref[i] = simnet.Key(x % 1000)
					}
				}
				got := append([]simnet.Key(nil), ref...)
				applyComparators(ref[:nodes*width], comps, width)
				body.run(&got[0], &comps[0], len(comps), width)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("width %d: slab[%d] = %d, scalar %d", width, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestDetectBodyConsistent: the probe must agree with itself (it is
// read once into a package variable; a flapping probe would mean the
// CPUID plumbing clobbers state), and KernelName must name its answer.
func TestDetectBodyConsistent(t *testing.T) {
	for i := 0; i < 3; i++ {
		if detectBody() != kernelBody {
			t.Fatal("detectBody flapped")
		}
	}
	if name := KernelName(); name != "scalar" && name != "avx2" && name != "avx512" {
		t.Fatalf("KernelName() = %q", name)
	}
}

// TestExchangeBitsMatchesScalar pins the AVX2 0-1 comparator and probe
// of the staged pass against the scalar loops: every length 0..40
// (whole 8-word groups and the scalar tail), the words each side
// leaves, the swapped lanes returned, and no write past the rows.
func TestExchangeBitsMatchesScalar(t *testing.T) {
	if kernelBody < bodyAVX2 {
		t.Skip("no avx2 on this host")
	}
	x := uint64(7)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x ^ x>>29
	}
	for n := 0; n <= 40; n++ {
		a, b := make([]uint64, n+1), make([]uint64, n+1)
		for i := range a {
			a[i], b[i] = next(), next()
		}
		if n%3 == 0 && n > 0 {
			b[n-1] = ^a[n-1] // a lane pattern where every lane swaps
		}
		if got, want := swapBits(a[:n], b[:n]), swaps(a[:n], b[:n]); got != want {
			t.Fatalf("n=%d: probed lanes %#x, scalar %#x", n, got, want)
		}
		wantA, wantB := append([]uint64(nil), a...), append([]uint64(nil), b...)
		want := exchangeWords(wantA[:n], wantB[:n])
		got := exchangeBits(a[:n], b[:n])
		if got != want {
			t.Fatalf("n=%d: swapped lanes %#x, scalar %#x", n, got, want)
		}
		for i := range a {
			if a[i] != wantA[i] || b[i] != wantB[i] {
				t.Fatalf("n=%d: word %d is (%#x,%#x), scalar (%#x,%#x)", n, i, a[i], b[i], wantA[i], wantB[i])
			}
		}
	}
}
