// Command perfbench is the repository's benchmark. One run measures one
// named workload for a fixed window from a seeded input, checks every
// output against slices.Sort, and prints a run header line followed by
// one JSON result line.
//
//	go run . --workload serve-light --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 it carries the per-layer metrics instead: the window is
// shared between untraced work and the same work with timing wrappers
// around the calls into each layer, the two are compared for the
// tracing overhead, and the recorded spans are written under
// .bench_build/perfbench as a gzipped Chrome trace. A wrong answer prints the result with
// "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// must match BENCHMARK.json (pinned by TestMetricListsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports
// every one. For the serve workloads a unit of work is one request,
// timed from its scheduled send time to receipt of its reply; for
// stream-1e7 it is one key, timed from the start of the sort call to
// the Write that delivered it in sorted order.
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median set-up: server and warm plans, or Compile
	{"peak_rss_mb", "MB"},    // process peak resident set at the end of the window
	{"p50_ms", "ms"},         // median latency of a unit of work
	{"p90_ms", "ms"},         // 90th percentile latency of a unit of work
	{"keys_per_s", "keys/s"}, // sorted keys delivered per second
	{"ok_ratio", "ratio"},    // units of work answered correctly / attempted
}

// perLayer is what the traced run reports. A layer the workload does
// not run reports 0.
var perLayer = []metricDef{
	{"serve.submit_us.p50", "us"},
	{"serve.submit_us.p99", "us"},
	{"serve.wait_ms.p50", "ms"},
	{"serve.wait_ms.p99", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.flushes", "count"},
	{"serve.buckets_built", "count"},
	{"serve.buckets_used", "count"},
	{"serve.allocs_per_req", "count"},
	{"serve.kernel_share", "ratio"},
	{"serve.gen_late_ms.p99", "ms"},
	{"schedule.compile_ms", "ms"},
	{"schedule.kernel_ns_per_cl", "ns"},
	{"extsort.read_ms", "ms"},
	{"extsort.runsort_ms", "ms"},
	{"extsort.write_ms", "ms"},
	{"extsort.merge_ms", "ms"},
	{"extsort.runs", "count"},
	{"extsort.merge_passes", "count"},
	{"extsort.spilled_bytes", "bytes"},
	{"baseline.slices_sort_keys_per_s", "keys/s"},
	{"stream.vs_slices_sort", "ratio"},
	{"trace.overhead_pct", "%"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
}

// outcome is a workload's raw report. wrong holds the first output that
// differed from slices.Sort.
type outcome struct {
	attempted, failed int64
	wrong             error
	metrics           map[string]float64
	spans             *tracer
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-light": serveLight.run,
	"stream-1e7":  runStream,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult checks out's metrics against the declared list for the
// mode: an end-to-end metric must be measured, a per-layer one not
// measured is a layer this workload does not run.
func newResult(out *outcome, trace bool) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.wrong == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s is not declared for this mode", name)
		}
	}
	return res, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	hdr := newRunHeader(*name, *seed, *seconds, *trace == 1)
	out, err := w(runConfig{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, err := newResult(out, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if out.spans != nil {
		path := filepath.Join(".bench_build", "perfbench", *name+".trace.json.gz")
		if err := out.spans.write(path, hdr); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(out.spans.spans), path)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]runHeader{"header": hdr}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if out.wrong != nil {
		fmt.Fprintf(stderr, "perfbench: %s: wrong answer: %v\n", *name, out.wrong)
		return 1
	}
	return 0
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// repeatSetup runs setUp at least minSetups times, and more while the
// total stays under setupBudget, and returns the median in seconds.
func repeatSetup(setUp func() (time.Duration, error)) (float64, error) {
	const (
		minSetups   = 3
		maxSetups   = 15
		setupBudget = 1500 * time.Millisecond
	)
	var times []float64
	var total time.Duration
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		d, err := setUp()
		if err != nil {
			return 0, err
		}
		total += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}
