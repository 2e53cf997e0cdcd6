package extsort

import (
	"context"
	"slices"
	"testing"
)

// FuzzSortStreamEquivalence: for fuzz-chosen input lengths, run sizes,
// fan-ins, pre-merge batch sizes (drawn from the seed) and memory
// budgets, the streaming tier through the certified network run sorter
// must agree with slices.Sort exactly. Wired into `make fuzz` and
// `make extsort-fuzz`.
func FuzzSortStreamEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(7), uint8(3), false)
	f.Add(int64(2), uint16(4096), uint8(16), uint8(2), true)
	f.Add(int64(-9), uint16(1), uint8(1), uint8(8), false)
	f.Add(int64(77), uint16(1000), uint8(13), uint8(2), true)
	sorter := compiledSorter(f)
	maxRun := sorter.MaxRun()
	f.Fuzz(func(t *testing.T, seed int64, n uint16, runSize, fanIn uint8, spill bool) {
		cfg := Config{
			RunSize:  1 + int(runSize)%maxRun,
			FanIn:    2 + int(fanIn)%31,
			RunBatch: 1 + int(uint64(seed)%16),
		}
		if spill {
			cfg.MemoryKeys = 1 // clamped to the merge floor; forces spilling past it
			cfg.SpillDir = t.TempDir()
		}
		keys := make([]Key, int(n))
		x := uint64(seed)
		for i := range keys {
			x = x*6364136223846793005 + 1442695040888963407
			keys[i] = Key(x>>1) - 1<<62
		}
		out := NewSliceWriter()
		stats, err := Sort(context.Background(), NewSliceReader(keys), out, sorter, cfg)
		if err != nil {
			t.Fatalf("Sort(n=%d cfg=%+v): %v", n, cfg, err)
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
				t.Fatalf("mismatch at %d: got %d want %d (n=%d cfg=%+v)", i, got[i], want[i], n, cfg)
			}
		}
	})
}
