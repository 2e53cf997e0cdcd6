package extsort

import (
	"context"
	"math"
	"slices"
	"testing"
)

// FuzzSortStreamEquivalence: for fuzz-chosen input lengths, run sizes
// (a cap on the run sorter's ceiling), fan-ins 2 to 32, pre-merge batch
// sizes (drawn from the seed) and spilling, the streaming tier through
// the certified network run sorter must agree with slices.Sort exactly.
// The fan-in is set past normalize, as sortAt does, since a derived one
// is at least 16; with spill set the budget is what that fan-in derives
// from, (fanIn+1)·4096 keys, so inputs above it spill pre-merged leaves
// as well as intermediate merges. One key in eight comes from the
// extremes {MinInt64, −1, 0, 1, MaxInt64}, so ties and the int64 ends
// meet in every merge, and maxShare/256 of the keys are MaxInt64 (the
// padding sentinel) on top. Wired into `make fuzz` and
// `make extsort-fuzz`.
func FuzzSortStreamEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(7), uint8(3), false, uint8(0))
	f.Add(int64(2), uint16(4096), uint8(16), uint8(2), true, uint8(0))
	f.Add(int64(-9), uint16(1), uint8(1), uint8(8), false, uint8(0))
	f.Add(int64(77), uint16(1000), uint8(13), uint8(2), true, uint8(0))
	f.Add(int64(5), uint16(40000), uint8(200), uint8(0), true, uint8(0))
	f.Add(int64(3), uint16(20000), uint8(255), uint8(5), true, uint8(200))
	base := compiledSorter(f)
	extremes := []Key{math.MinInt64, -1, 0, 1, math.MaxInt64}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, runCap, fanIn uint8, spill bool, maxShare uint8) {
		sorter := cappedSorter{base, 1 + int(runCap)%base.MaxRun()}
		cfg := Config{RunBatch: 1 + int(uint64(seed)%16), SpillDir: t.TempDir()}
		p, err := cfg.normalize(sorter)
		if err != nil {
			t.Fatal(err)
		}
		p.fanIn = 2 + int(fanIn)%31
		if spill {
			p.MemoryKeys = (p.fanIn + 1) * spillBufKeys
		}
		keys := make([]Key, int(n))
		x := uint64(seed)
		for i := range keys {
			x = x*6364136223846793005 + 1442695040888963407
			switch {
			case x>>56 < uint64(maxShare):
				keys[i] = math.MaxInt64
			case x>>53&7 == 0:
				keys[i] = extremes[x>>32%uint64(len(extremes))]
			default:
				keys[i] = Key(x>>1) - 1<<62
			}
		}
		out := NewSliceWriter()
		stats, err := sortParams(context.Background(), NewSliceReader(keys), out, sorter, p)
		if err != nil {
			t.Fatalf("Sort(n=%d %+v): %v", n, p, err)
		}
		if stats.Keys != int64(len(keys)) {
			t.Fatalf("stats.Keys = %d, want %d", stats.Keys, len(keys))
		}
		got := out.Keys()
		want := slices.Clone(keys)
		slices.Sort(want)
		if len(got) != len(want) {
			t.Fatalf("%d keys out, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mismatch at %d: got %d want %d (n=%d %+v)", i, got[i], want[i], n, p)
			}
		}
	})
}
