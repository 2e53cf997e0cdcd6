package extsort

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortedDraw returns n sorted keys drawn by the given shape: mixed
// (MinInt64, MaxInt64, duplicates and random keys), or offset by base
// with no extremes, so that one input can lie wholly below the other.
func sortedDraw(rng *rand.Rand, n int, mixed bool, base Key) []Key {
	keys := make([]Key, n)
	for i := range keys {
		switch r := rng.Intn(8); {
		case !mixed:
			keys[i] = base + Key(rng.Intn(1000))
		case r == 0:
			keys[i] = math.MinInt64
		case r == 1:
			keys[i] = math.MaxInt64
		case r < 4:
			keys[i] = Key(r) // duplicates
		default:
			keys[i] = Key(rng.Int63n(200) - 100)
		}
	}
	slices.Sort(keys)
	return keys
}

// TestMergeBodiesMatchScalar pins the AVX-512 merge body against the
// scalar body, and the scalar body against slices.Sort, calling each
// directly (skipped on a host without AVX-512). It covers every pair
// of input lengths 0..40 — every way the 8-key carry can meet a tail
// shorter than 8 — plus 1024 and 65,536, with MinInt64, MaxInt64 and
// duplicates in the mix, interleaved and with one input wholly below
// the other; a large input meets the lengths around the 8-key
// boundaries. Each merge runs at the production per-call bound (the
// 65,536-key inputs are cut at it and resumed many times), and those
// of at most 2048 keys also at one and three steps per call. One spare slot past out catches a store
// that overruns it.
func TestMergeBodiesMatchScalar(t *testing.T) {
	if !vectorMerge {
		t.Skip("no avx512 on this host")
	}
	rng := rand.New(rand.NewSource(17))
	lengths := []int{1024, 65536}
	for n := 40; n >= 0; n-- {
		lengths = append(lengths, n)
	}
	// Each length's inputs in every shape: mixed, low and high.
	inputs := map[int][3][]Key{}
	for _, n := range lengths {
		inputs[n] = [3][]Key{sortedDraw(rng, n, true, 0), sortedDraw(rng, n, false, 0), sortedDraw(rng, n, false, 5000)}
	}
	edges := []int{0, 1, 7, 8, 9, 15, 16, 17, 40}
	const spare = Key(-777)
	for _, na := range lengths {
		for _, nb := range lengths {
			if (na > 40 || nb > 40) && na != nb && !slices.Contains(edges, min(na, nb)) {
				continue // a large input meets only the boundary lengths
			}
			for shape, pick := range [][2]int{{0, 0}, {1, 2}, {2, 1}} {
				a, b := inputs[na][pick[0]], inputs[nb][pick[1]]
				want := make([]Key, na+nb+1)
				want[na+nb] = spare
				mergeScalar(want[:na+nb], a, b)
				ref := append(slices.Clone(a), b...)
				slices.Sort(ref)
				if !slices.Equal(want[:na+nb], ref) {
					t.Fatalf("scalar body, %d+%d keys, shape %d: not the sorted union", na, nb, shape)
				}
				for _, steps := range []int{mergeCallSteps, 1, 3} {
					if steps < mergeCallSteps && na+nb > 2048 {
						break // cut at the production bound already
					}
					got := make([]Key, na+nb+1)
					got[na+nb] = spare
					mergeAVX512(got[:na+nb], a, b, steps)
					if !slices.Equal(got, want) {
						i := 0
						for got[i] == want[i] {
							i++
						}
						t.Fatalf("avx512 body, %d+%d keys, shape %d, %d steps a call: out[%d] = %d, scalar %d",
							na, nb, shape, steps, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMergerZeroOne certifies the 16-key merger in kernel_amd64.s by
// the 0-1 principle: it is a comparator network (data-oblivious
// permutes, mins and maxes), so it merges every pair of sorted 8-key
// vectors if it merges every pair of sorted 0-1 vectors, and there are
// 9 × 9 = 81 of those. Each runs as one assembly step: the carry is one
// vector, the other is all of a (b's head is larger, so a is loaded);
// the step's output and the carry it returns must be the 16 sorted
// keys.
func TestMergerZeroOne(t *testing.T) {
	if !vectorMerge {
		t.Skip("no avx512 on this host")
	}
	zeroOne := func(ones int) []Key {
		v := make([]Key, 8)
		for i := 8 - ones; i < 8; i++ {
			v[i] = 1
		}
		return v
	}
	b := []Key{2, 2, 2, 2, 2, 2, 2, 2}
	for x := 0; x <= 8; x++ {
		for y := 0; y <= 8; y++ {
			var carry [8]Key
			copy(carry[:], zeroOne(x))
			a := zeroOne(y)
			out := make([]Key, 8)
			if da, db := mergeStepsAVX512(&out[0], &a[0], &b[0], 8, 8, 1, &carry); da != 8 || db != 0 {
				t.Fatalf("%d and %d ones: consumed %d+%d keys, want 8+0", x, y, da, db)
			}
			got := append(out, carry[:]...)
			want := append(zeroOne(x), a...)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%d and %d ones: merger gave %v, want %v", x, y, got, want)
			}
		}
	}
}
