package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"productsort/internal/extsort"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

// extsortEntry is one measured cell: the streaming tier's wall clock
// and throughput next to a slices.Sort baseline over the same keys.
type extsortEntry struct {
	Keys     int `json:"keys"`
	FanIn    int `json:"fanIn"`
	RunSize  int `json:"runSize"`
	RunBatch int `json:"runBatch"`
	// Runs, MergePasses, MergeChunks and SpilledBytes come from the
	// tier's own accounting (extsort.Stats); FanIn is the widest merge
	// it ran and MergeChunks how many key ranges the final merge was
	// split into.
	Runs         int64 `json:"runs"`
	MergePasses  int   `json:"mergePasses"`
	MergeChunks  int   `json:"mergeChunks"`
	SpilledBytes int64 `json:"spilledBytes"`
	// StreamNs is extsort.Sort end to end; BaselineNs is slices.Sort on
	// a copy of the same input.
	StreamNs   int64 `json:"streamNs"`
	BaselineNs int64 `json:"baselineNs"`
	// StreamKeysPerSec and BaselineKeysPerSec are the derived
	// throughputs; Ratio is baseline/stream time (>1 means the stream
	// wins).
	StreamKeysPerSec   float64 `json:"streamKeysPerSec"`
	BaselineKeysPerSec float64 `json:"baselineKeysPerSec"`
	Ratio              float64 `json:"ratio"`
}

// extsortHost names the machine a report was measured on.
type extsortHost struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// spread is the middle of a set of repeated measurements: the median
// and the quartiles (nearest rank), so the interquartile distance
// Q3−Q1 is the run-to-run noise a comparison has to beat.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// extsortReport is the BENCH_extsort.json document: repeats of the
// default configuration at the second-largest size with their spread,
// a size sweep at the default configuration, and a RunBatch sweep at
// the largest size, measured in that order.
type extsortReport struct {
	Generated string         `json:"generated"`
	Host      extsortHost    `json:"host"`
	Network   string         `json:"network"`
	Nodes     int            `json:"nodes"`
	SizeSweep []extsortEntry `json:"sizeSweep"`
	// Repeats holds extsortRepeats runs of the default configuration over
	// one input, measured first (after a one-key warm-up) so no larger
	// cell runs before them; RepeatKeysPerSec and RepeatRatio summarize
	// them.
	Repeats          []extsortEntry `json:"repeats"`
	RepeatKeysPerSec spread         `json:"repeatKeysPerSec"`
	RepeatRatio      spread         `json:"repeatRatio"`
	// RunBatchSweep holds RunBatch 16, 32, 64, 128 and the budget-derived
	// default (the last entry).
	RunBatchSweep []extsortEntry `json:"runBatchSweep"`
}

// extsortRepeats is how often the default configuration runs at the
// second-largest size: enough for a median and quartiles.
const extsortRepeats = 5

// runBatchSweep is the RunBatch sweep at the largest size; 0 selects
// the budget-derived default.
var runBatchSweep = []int{16, 32, 64, 128, 0}

// runExtsortBench measures the streaming external sort tier (certified
// run formation + loser-tree merge) against slices.Sort and writes the
// report to path. Every cell runs extsort.Sort with the network run
// sorter — the call SortStream makes — and is verified equal to
// slices.Sort before its numbers are recorded.
func runExtsortBench(path, sizesCSV string, seed int64) error {
	sizes, err := parseInts("extsortsizes", sizesCSV)
	if err != nil {
		return err
	}
	nw, err := product.New(graph.K2(), 10)
	if err != nil {
		return err
	}
	prog, err := schedule.Compile(nw, sort2d.Auto{})
	if err != nil {
		return err
	}
	sorter := extsort.NewNetworkSorter(prog, 0)
	rep := extsortReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host:      hostInfo(),
		Network:   nw.Name(),
		Nodes:     nw.Nodes(),
	}
	fmt.Printf("extsort bench: %s (%d nodes) on %s, GOMAXPROCS %d\n", rep.Network, rep.Nodes, rep.Host.CPU, rep.Host.GOMAXPROCS)
	// The first batch replay lowers the program once (about 50 ms at
	// K2^10, BENCH_schedule.json's pruneNs); keep it out of the cells.
	if _, err := extsortCell(sorter, 1, extsort.Config{}, seed); err != nil {
		return err
	}

	// The largest size is the slowest cell; repeat the next one down.
	// The repeats run first, before any larger cell has grown the heap:
	// run after the largest cell they read faster than the size sweep's
	// cell of the same size, so their spread depended on cell order.
	repN := sizes[max(len(sizes)-2, 0)]
	var kps, ratios []float64
	for range extsortRepeats {
		e, err := extsortCell(sorter, repN, extsort.Config{}, seed)
		if err != nil {
			return err
		}
		rep.Repeats = append(rep.Repeats, e)
		kps = append(kps, e.StreamKeysPerSec)
		ratios = append(ratios, e.Ratio)
	}
	rep.RepeatKeysPerSec, rep.RepeatRatio = spreadOf(kps), spreadOf(ratios)
	fmt.Printf("  %d repeats (n=%d): stream %8.0f keys/s median [Q1 %.0f, Q3 %.0f], x%.2f median [%.2f, %.2f]\n",
		extsortRepeats, repN, rep.RepeatKeysPerSec.Median, rep.RepeatKeysPerSec.Q1, rep.RepeatKeysPerSec.Q3,
		rep.RepeatRatio.Median, rep.RepeatRatio.Q1, rep.RepeatRatio.Q3)
	for _, n := range sizes {
		e, err := extsortCell(sorter, n, extsort.Config{}, seed)
		if err != nil {
			return err
		}
		rep.SizeSweep = append(rep.SizeSweep, e)
		fmt.Printf("  size %9d: stream %8.0f keys/s, slices.Sort %8.0f keys/s (x%.2f), %d runs, %d merge passes, %d chunks\n",
			n, e.StreamKeysPerSec, e.BaselineKeysPerSec, e.Ratio, e.Runs, e.MergePasses, e.MergeChunks)
	}
	batchN := sizes[len(sizes)-1]
	for _, b := range runBatchSweep {
		e, err := extsortCell(sorter, batchN, extsort.Config{RunBatch: b}, seed)
		if err != nil {
			return err
		}
		rep.RunBatchSweep = append(rep.RunBatchSweep, e)
		fmt.Printf("  run batch %4d (n=%d): stream %8.0f keys/s (x%.2f), %d merge passes, %d spilled bytes\n",
			e.RunBatch, batchN, e.StreamKeysPerSec, e.Ratio, e.MergePasses, e.SpilledBytes)
	}
	return writeJSONArtifact(path, &rep)
}

// extsortCell runs one measurement: n keys through extsort.Sort with
// the given configuration (zero fields = tier defaults), then
// slices.Sort over a copy.
func extsortCell(sorter extsort.RunSorter, n int, cfg extsort.Config, seed int64) (extsortEntry, error) {
	if n < 1 {
		return extsortEntry{}, fmt.Errorf("extsort bench: size %d < 1", n)
	}
	keys := extsortKeys(rand.New(rand.NewSource(seed+int64(n))), n)
	// Start every cell from a collected heap, so no cell runs under the
	// GC target or the garbage an earlier cell left behind: without it
	// the 1e6-key repeats spread several times wider (interquartile
	// 1.7–4.2M keys/s against 0.3–1.0M, 2-vCPU Xeon).
	runtime.GC()

	out := extsort.NewSliceWriter()
	start := time.Now()
	stats, err := extsort.Sort(context.Background(), extsort.NewSliceReader(keys), out, sorter, cfg)
	streamNs := time.Since(start).Nanoseconds()
	if err != nil {
		return extsortEntry{}, fmt.Errorf("extsort bench: Sort(n=%d, %+v): %w", n, cfg, err)
	}
	base := slices.Clone(keys)
	start = time.Now()
	slices.Sort(base)
	baseNs := time.Since(start).Nanoseconds()
	if got := out.Keys(); !slices.Equal(got, base) {
		return extsortEntry{}, fmt.Errorf("extsort bench: Sort(n=%d, %+v) output differs from slices.Sort (%d keys)", n, cfg, len(got))
	}

	return extsortEntry{
		Keys:               n,
		FanIn:              stats.MaxFanIn,
		RunSize:            stats.RunSize,
		RunBatch:           stats.RunBatch,
		Runs:               stats.Runs,
		MergePasses:        stats.MergePasses,
		MergeChunks:        stats.MergeChunks,
		SpilledBytes:       stats.SpilledBytes,
		StreamNs:           streamNs,
		BaselineNs:         baseNs,
		StreamKeysPerSec:   float64(n) / (float64(streamNs) / 1e9),
		BaselineKeysPerSec: float64(n) / (float64(baseNs) / 1e9),
		Ratio:              float64(baseNs) / float64(streamNs),
	}, nil
}

// spreadOf returns the median and the nearest-rank quartiles of xs.
func spreadOf(xs []float64) spread {
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := func(q float64) float64 { return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)] }
	return spread{Median: rank(0.5), Q1: rank(0.25), Q3: rank(0.75)}
}

// hostInfo describes this machine; CPU is empty where /proc/cpuinfo
// cannot be read.
func hostInfo() extsortHost {
	h := extsortHost{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPU = strings.TrimSpace(value)
				break
			}
		}
	}
	return h
}

// extsortKeys draws n keys over the whole int64 range with duplicates
// and the extremes: about one key in 64 is each of MinInt64, MaxInt64
// (the padding sentinel) and 0, and another one in 16 comes from a
// five-value alphabet.
func extsortKeys(rng *rand.Rand, n int) []extsort.Key {
	keys := make([]extsort.Key, n)
	for i := range keys {
		switch r := rng.Intn(64); {
		case r == 0:
			keys[i] = math.MinInt64
		case r == 1:
			keys[i] = math.MaxInt64
		case r == 2:
			keys[i] = 0
		case r < 7:
			keys[i] = extsort.Key(r - 5)
		default:
			keys[i] = extsort.Key(rng.Uint64())
		}
	}
	return keys
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("extsort bench: bad -%s entry %q", flagName, part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("extsort bench: -%s is empty", flagName)
	}
	return out, nil
}
