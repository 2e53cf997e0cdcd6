package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"productsort"
)

// extsortEntry is one (input size, fan-in) cell: the streaming tier's
// wall clock and throughput next to a slices.Sort baseline over the
// same keys.
type extsortEntry struct {
	Keys    int `json:"keys"`
	FanIn   int `json:"fanIn"`
	RunSize int `json:"runSize"`
	// Runs, MergePasses and SpilledBytes come from the tier's own
	// accounting (extsort.Stats).
	Runs         int64 `json:"runs"`
	MergePasses  int   `json:"mergePasses"`
	SpilledBytes int64 `json:"spilledBytes"`
	// StreamNs is SortStream end to end; BaselineNs is slices.Sort on a
	// copy of the same input.
	StreamNs   int64 `json:"streamNs"`
	BaselineNs int64 `json:"baselineNs"`
	// StreamKeysPerSec and BaselineKeysPerSec are the derived
	// throughputs; Ratio is baseline/stream (>1 means slices.Sort wins).
	StreamKeysPerSec   float64 `json:"streamKeysPerSec"`
	BaselineKeysPerSec float64 `json:"baselineKeysPerSec"`
	Ratio              float64 `json:"ratio"`
}

// extsortReport is the BENCH_extsort.json document: a size sweep at
// the default fan-in followed by a fan-in sweep at a fixed size.
type extsortReport struct {
	Generated string         `json:"generated"`
	Network   string         `json:"network"`
	Nodes     int            `json:"nodes"`
	SizeSweep []extsortEntry `json:"sizeSweep"`
	FanSweep  []extsortEntry `json:"fanSweep"`
}

// runExtsortBench measures the streaming external sort tier (certified
// run formation + loser-tree merge) against slices.Sort and writes the
// report to path. Every streamed output is verified sorted with the
// right key count before its numbers are recorded.
func runExtsortBench(path, sizesCSV, faninsCSV string, seed int64) error {
	sizes, err := parseInts("extsortsizes", sizesCSV)
	if err != nil {
		return err
	}
	fanins, err := parseInts("fanins", faninsCSV)
	if err != nil {
		return err
	}
	nw, err := productsort.Hypercube(10)
	if err != nil {
		return err
	}
	c, err := productsort.Compile(nw)
	if err != nil {
		return err
	}
	rep := extsortReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Network:   nw.Name(),
		Nodes:     nw.Nodes(),
	}
	fmt.Printf("extsort bench: %s (%d nodes)\n", rep.Network, rep.Nodes)

	for _, n := range sizes {
		e, err := extsortCell(c, n, 0, seed)
		if err != nil {
			return err
		}
		rep.SizeSweep = append(rep.SizeSweep, e)
		fmt.Printf("  size %9d: stream %8.0f keys/s, slices.Sort %8.0f keys/s (x%.2f), %d runs, %d merge passes\n",
			n, e.StreamKeysPerSec, e.BaselineKeysPerSec, e.Ratio, e.Runs, e.MergePasses)
	}
	// The fan-in sweep holds the input fixed at the second-largest size
	// (the largest is the slowest cell; the sweep multiplies it).
	fanN := sizes[0]
	if len(sizes) > 1 {
		fanN = sizes[len(sizes)-2]
	}
	for _, k := range fanins {
		e, err := extsortCell(c, fanN, k, seed)
		if err != nil {
			return err
		}
		rep.FanSweep = append(rep.FanSweep, e)
		fmt.Printf("  fan-in %4d (n=%d): stream %8.0f keys/s, %d merge passes\n",
			k, fanN, e.StreamKeysPerSec, e.MergePasses)
	}
	return writeJSONArtifact(path, &rep)
}

// extsortCell runs one measurement: n keys through SortStream with the
// given fan-in (0 = tier default), then slices.Sort over a copy.
func extsortCell(c *productsort.CompiledNetwork, n, fanIn int, seed int64) (extsortEntry, error) {
	if n < 1 {
		return extsortEntry{}, fmt.Errorf("extsort bench: size %d < 1", n)
	}
	keys := extsortKeys(rand.New(rand.NewSource(seed+int64(n)+int64(fanIn)<<32)), n)

	start := time.Now()
	got, stats, err := c.SortStreamKeys(context.Background(), keys, productsort.StreamConfig{FanIn: fanIn})
	streamNs := time.Since(start).Nanoseconds()
	if err != nil {
		return extsortEntry{}, fmt.Errorf("extsort bench: SortStream(n=%d, fanIn=%d): %w", n, fanIn, err)
	}
	base := slices.Clone(keys)
	start = time.Now()
	slices.Sort(base)
	baseNs := time.Since(start).Nanoseconds()
	if !slices.Equal(got, base) {
		return extsortEntry{}, fmt.Errorf("extsort bench: SortStream(n=%d, fanIn=%d) output differs from slices.Sort (%d keys)", n, fanIn, len(got))
	}

	return extsortEntry{
		Keys:               n,
		FanIn:              stats.MaxFanIn,
		RunSize:            stats.RunSize,
		Runs:               stats.Runs,
		MergePasses:        stats.MergePasses,
		SpilledBytes:       stats.SpilledBytes,
		StreamNs:           streamNs,
		BaselineNs:         baseNs,
		StreamKeysPerSec:   float64(n) / (float64(streamNs) / 1e9),
		BaselineKeysPerSec: float64(n) / (float64(baseNs) / 1e9),
		Ratio:              float64(baseNs) / float64(streamNs),
	}, nil
}

// extsortKeys draws n keys over the whole int64 range with duplicates
// and the extremes: about one key in 64 is each of MinInt64, MaxInt64
// (the padding sentinel) and 0, and another one in 16 comes from a
// five-value alphabet.
func extsortKeys(rng *rand.Rand, n int) []productsort.Key {
	keys := make([]productsort.Key, n)
	for i := range keys {
		switch r := rng.Intn(64); {
		case r == 0:
			keys[i] = math.MinInt64
		case r == 1:
			keys[i] = math.MaxInt64
		case r == 2:
			keys[i] = 0
		case r < 7:
			keys[i] = productsort.Key(r - 5)
		default:
			keys[i] = productsort.Key(rng.Uint64())
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
