package workload

import (
	"testing"
	"time"
)

// TestPoissonArrivalsDeterministic: same (n, rate, seed) → identical
// gaps; a different seed diverges.
func TestPoissonArrivalsDeterministic(t *testing.T) {
	a := PoissonArrivals(256, 1000, 42)
	b := PoissonArrivals(256, 1000, 42)
	if len(a) != 256 {
		t.Fatalf("len = %d, want 256", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs under the same seed: %v vs %v", i, a[i], b[i])
		}
	}
	c := PoissonArrivals(256, 1000, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
}

// TestPoissonArrivalsMean: the empirical mean gap approximates 1/rate.
func TestPoissonArrivalsMean(t *testing.T) {
	const rate = 5000.0
	gaps := PoissonArrivals(20000, rate, 7)
	var sum time.Duration
	for _, g := range gaps {
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean := float64(sum) / float64(len(gaps))
	want := float64(time.Second) / rate
	if mean < 0.9*want || mean > 1.1*want {
		t.Fatalf("mean gap %v, want about %v", time.Duration(mean), time.Duration(want))
	}
}

// TestZipfSizes: bounds hold, the head dominates, and the draw is
// seed-deterministic.
func TestZipfSizes(t *testing.T) {
	sizes := ZipfSizes(10000, 1, 64, 1.2, 3)
	again := ZipfSizes(10000, 1, 64, 1.2, 3)
	small := 0
	for i, s := range sizes {
		if s < 1 || s > 64 {
			t.Fatalf("size %d out of [1, 64]", s)
		}
		if s != again[i] {
			t.Fatalf("size %d differs under the same seed", i)
		}
		if s <= 8 {
			small++
		}
	}
	if small < len(sizes)/2 {
		t.Fatalf("only %d/%d sizes <= 8; distribution not head-heavy", small, len(sizes))
	}
}

// TestArrivalValidation: bad parameters panic rather than silently
// generating garbage load.
func TestArrivalValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"poisson-rate":   func() { PoissonArrivals(1, 0, 1) },
		"zipf-exponent":  func() { ZipfSizes(1, 1, 8, 1.0, 1) },
		"zipf-min":       func() { ZipfSizes(1, 0, 8, 1.5, 1) },
		"zipf-max-order": func() { ZipfSizes(1, 9, 8, 1.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
