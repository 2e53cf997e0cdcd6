// Inputs and the correctness oracle: seeded keys over the whole int64
// range, an order-independent fingerprint for checking outputs inside a
// timed window, and the exact slices.Sort comparison used after it.

package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"productsort"
)

// Key is the sortable value type.
type Key = productsort.Key

// keyGen draws keys over the full int64 range. About one key in 64 is
// each of MinInt64, MaxInt64 (the padding sentinel) and 0, and a
// further one in 16 comes from a five-value alphabet, so every request
// of a few dozen keys carries duplicates and the extremes.
type keyGen struct {
	rng *rand.Rand
}

func newKeyGen(seed int64) keyGen { return keyGen{rng: rand.New(rand.NewSource(seed))} }

func (g keyGen) key() Key {
	switch r := g.rng.Intn(64); {
	case r == 0:
		return math.MinInt64
	case r == 1:
		return math.MaxInt64
	case r == 2:
		return 0
	case r < 7:
		return Key(r - 5) // -2..1: a small alphabet of duplicates
	default:
		return Key(g.rng.Uint64())
	}
}

func (g keyGen) fill(dst []Key) []Key {
	for i := range dst {
		dst[i] = g.key()
	}
	return dst
}

// mix is the splitmix64 finalizer: a bijection on 64 bits whose sum
// over a multiset is a fingerprint that ignores order.
func mix(k Key) uint64 {
	z := uint64(k) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fingerprint is the order-independent multiset fingerprint of keys.
func fingerprint(keys []Key) uint64 {
	var s uint64
	for _, k := range keys {
		s += mix(k)
	}
	return s
}

// prefixFingerprints returns p with p[j] = fingerprint(keys[:j]), so
// any window's fingerprint is p[hi]-p[lo].
func prefixFingerprints(keys []Key) []uint64 {
	p := make([]uint64, len(keys)+1)
	for i, k := range keys {
		p[i+1] = p[i] + mix(k)
	}
	return p
}

// checkFingerprint accepts out when it is nondecreasing and has the
// length and fingerprint of the input. That equals slices.Sort of the
// input unless two different multisets collide in a 64-bit sum, and it
// costs one pass with no allocation, so it can run inside a timed
// window.
func checkFingerprint(out []Key, wantLen int, wantFP uint64) error {
	if len(out) != wantLen {
		return fmt.Errorf("output has %d keys, input had %d", len(out), wantLen)
	}
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			return fmt.Errorf("output unsorted at index %d", i)
		}
	}
	if fingerprint(out) != wantFP {
		return fmt.Errorf("output is sorted but is not a permutation of the input")
	}
	return nil
}

// checkExact compares out with slices.Sort of a copy of in.
func checkExact(in, out []Key) error {
	want := slices.Clone(in)
	slices.Sort(want)
	return checkSortedAgainst(want, out)
}

// checkSortedAgainst compares out with an already sorted want.
func checkSortedAgainst(want, out []Key) error {
	if len(out) != len(want) {
		return fmt.Errorf("output has %d keys, slices.Sort has %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			return fmt.Errorf("output differs from slices.Sort at index %d: %d != %d", i, out[i], want[i])
		}
	}
	return nil
}
