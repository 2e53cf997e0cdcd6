package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	// 1000 samples: p99 is rank 990, with exactly ten beyond it.
	if v, err := quantile(samples(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %d, %v; want 990", v, err)
	}
	// 999 samples leave nine beyond rank 990: no p99.
	if _, err := quantile(samples(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with nine beyond it")
	}
	if v, err := quantile(samples(21), 0.5); err != nil || v != 11 {
		t.Fatalf("median of 1..21 = %d, %v; want 11", v, err)
	}
	if _, err := quantile(samples(19), 0.5); err == nil {
		t.Fatal("median of 19 samples accepted with nine beyond it")
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("quantile of no samples accepted")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestLatencyRunsFromScheduledSendTime(t *testing.T) {
	tr := &traffic{
		pool:   [][]Key{{1, 2, 3}},
		due:    []int64{1000, 2000},
		set:    []int32{0, 0},
		off:    []int32{0, 0},
		size:   []int32{3, 3},
		prefix: [][]uint64{prefixFingerprints([]Key{1, 2, 3})},
	}
	// The sender fell behind: both requests went out at 5000.
	res := []reqResult{
		{sent: 5000, received: 9000, status: statusOK, network: "k"},
		{sent: 5000, received: 7000, status: statusFailed},
	}
	s, err := summarize(tr, res, map[string]string{"k": "product"})
	if err != nil {
		t.Fatal(err)
	}
	if s.lat[0] != 8000 {
		t.Fatalf("latency %d, want 8000 (receipt 9000 - due 1000), not 4000 from the Submit call", s.lat[0])
	}
	if s.lat[1] != math.MaxInt64 || s.failed != 1 || s.ok != 1 {
		t.Fatalf("a failed request must count as never answered: %+v", s)
	}
	if _, err := summarize(tr, res, map[string]string{}); err == nil {
		t.Fatal("a reply from a plan set-up did not warm was accepted")
	}
}

func TestCheckersRejectWrongMultiset(t *testing.T) {
	in := newKeyGen(7).fill(make([]Key, 200))
	good := slices.Clone(in)
	slices.Sort(good)
	if err := checkFingerprint(good, len(in), fingerprint(in)); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	if err := checkExact(in, good); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	// Sorted, right length, but one key duplicated in place of another.
	bad := slices.Clone(good)
	bad[100] = bad[99]
	if !slices.IsSorted(bad) || slices.Equal(bad, good) {
		t.Fatal("test input is not a sorted wrong multiset")
	}
	if err := checkFingerprint(bad, len(in), fingerprint(in)); err == nil {
		t.Fatal("fingerprint check accepted a sorted output with the wrong multiset")
	}
	if err := checkExact(in, bad); err == nil {
		t.Fatal("exact check accepted a sorted output with the wrong multiset")
	}
	if err := checkFingerprint(good[1:], len(in), fingerprint(in)); err == nil {
		t.Fatal("fingerprint check accepted a short output")
	}
	unsorted := slices.Clone(good)
	unsorted[0], unsorted[199] = unsorted[199], unsorted[0]
	if err := checkFingerprint(unsorted, len(in), fingerprint(in)); err == nil {
		t.Fatal("fingerprint check accepted an unsorted output")
	}
}

func TestKeysCoverExtremesAndDuplicates(t *testing.T) {
	keys := newKeyGen(1).fill(make([]Key, 4096))
	for _, k := range []Key{math.MinInt64, 0, math.MaxInt64} {
		if !slices.Contains(keys, k) {
			t.Errorf("key %d never drawn", k)
		}
	}
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) == len(keys) {
		t.Error("no duplicate keys drawn")
	}
	p := prefixFingerprints(keys)
	if p[300]-p[100] != fingerprint(keys[100:300]) {
		t.Error("prefix fingerprints disagree with a direct fingerprint")
	}
}

func TestStreamDeliveryQuantile(t *testing.T) {
	w := &stampWriter{keys: make([]Key, 100), ends: []int{40, 80, 100}, at: []int64{10, 20, 30}}
	if got, err := w.delivered(0.5); err != nil || got != 20 {
		t.Fatalf("median key delivered at %d, %v; want 20", got, err)
	}
	if got, err := w.delivered(0.4); err != nil || got != 10 {
		t.Fatalf("40th key delivered at %d, %v; want 10", got, err)
	}
	if got, err := w.delivered(0.9); err != nil || got != 30 {
		t.Fatalf("90th key delivered at %d, %v; want 30", got, err)
	}
}

func TestWarmSizesHitEveryPowerOfTwoBoundary(t *testing.T) {
	sizes := warmSizes(4096)
	for p := 1; p <= 4096; p *= 2 {
		if !slices.Contains(sizes, p) || (p < 4096 && !slices.Contains(sizes, p+1)) {
			t.Errorf("warm sizes miss %d or %d", p, p+1)
		}
	}
	for i := 1; i < len(sizes); i++ {
		prev := sizes[i-1]
		if step := sizes[i] - prev; step < 1 || step > max(1, int(math.Ceil(float64(prev)*1.05))-prev) {
			t.Errorf("warm sizes step from %d to %d", prev, sizes[i])
		}
	}
	if sizes[0] != 1 || sizes[len(sizes)-1] != 4096 {
		t.Errorf("warm sizes span %d..%d, want 1..4096", sizes[0], sizes[len(sizes)-1])
	}
}

func TestParseCPUInfo(t *testing.T) {
	model, avx2 := parseCPUInfo("processor\t: 0\nmodel name\t: Some CPU @ 2GHz\nflags\t\t: fpu sse avx2 bmi2\n\nmodel name\t: Other\n")
	if model != "Some CPU @ 2GHz" || !avx2 {
		t.Fatalf("got %q, %v", model, avx2)
	}
	if _, avx2 := parseCPUInfo("flags\t: fpu avx avx512f\n"); avx2 {
		t.Fatal("avx2 reported without the flag")
	}
}

func TestNewResultChecksDeclaredMetrics(t *testing.T) {
	out := &outcome{attempted: 1, metrics: map[string]float64{"schedule.compile_ms": 2}}
	res, err := newResult(out, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["serve.flushes"].Value != 0 || res.Metrics["schedule.compile_ms"].Value != 2 || len(res.Metrics) != len(perLayer) {
		t.Fatalf("per-layer result %+v", res)
	}
	if _, err := newResult(out, false); err == nil {
		t.Fatal("end-to-end result accepted with metrics missing")
	}
}

// TestMetricListsMatchBenchmarkJSON pins the declared metrics and
// workloads to the benchmark's manifest at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("manifest lists %d metrics, the benchmark %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: manifest %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("manifest workload %s is not implemented", w.Name)
		}
	}
}

func TestServeLightRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live server")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "serve-light", "--seed", "5", "--seconds", "0.6", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1000 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}
