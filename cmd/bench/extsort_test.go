package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"testing"
)

// TestRunExtsortBench: every size runs once, the second-largest runs
// extsortRepeats times with its spread recorded, the RunBatch sweep
// runs at the largest size, every merge-cost cell is recorded, and the
// report names its host and kernel.
func TestRunExtsortBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "extsort.json")
	if err := runExtsortBench(path, "500,2000,9000", 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep extsortReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Host.GoVersion == "" || rep.Host.NumCPU < 1 || rep.Host.GOMAXPROCS < 1 {
		t.Fatalf("host header: %+v", rep.Host)
	}
	if len(rep.SizeSweep) != 3 || len(rep.Repeats) != extsortRepeats || len(rep.RunBatchSweep) != len(runBatchSweep) {
		t.Fatalf("%d sizes, %d repeats, %d batch cells; want 3, %d, %d",
			len(rep.SizeSweep), len(rep.Repeats), len(rep.RunBatchSweep), extsortRepeats, len(runBatchSweep))
	}
	for _, e := range rep.Repeats {
		if e.Keys != 2000 || e.StreamKeysPerSec <= 0 {
			t.Fatalf("repeat cell: %+v", e)
		}
	}
	for i, e := range rep.RunBatchSweep {
		if want := runBatchSweep[i]; e.Keys != 9000 || want != 0 && e.RunBatch != want {
			t.Fatalf("batch cell %d: %+v, want RunBatch %d at 9000 keys", i, e, want)
		}
	}
	if len(rep.Merge) != len(mergeCells) || rep.Host.Kernel == "" {
		t.Fatalf("%d merge cells, kernel %q; want %d cells and a kernel", len(rep.Merge), rep.Host.Kernel, len(mergeCells))
	}
	for i, e := range rep.Merge {
		if e.Runs != mergeCells[i].runs || e.Levels != bits.Len(uint(e.Runs-1)) || e.NsPerKeyPerLevel.Median <= 0 {
			t.Fatalf("merge cell %d: %+v", i, e)
		}
	}
	for _, s := range []spread{rep.RepeatKeysPerSec, rep.RepeatRatio} {
		if !(0 < s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3) {
			t.Fatalf("spread out of order: %+v", s)
		}
	}
}

// TestSpreadOf: nearest-rank median and quartiles, input order ignored.
func TestSpreadOf(t *testing.T) {
	got := spreadOf([]float64{5, 1, 4, 2, 3})
	if got != (spread{Median: 3, Q1: 2, Q3: 4}) {
		t.Fatalf("spreadOf = %+v, want median 3, Q1 2, Q3 4", got)
	}
}
