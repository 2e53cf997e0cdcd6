// The stream-1e7 workload: one CompiledNetwork.SortStream call over ten
// million keys through Compile(Hypercube(10)) with the default
// StreamConfig, five times the default MemoryKeys, so run formation
// spills and the merge takes several passes. No serve layer runs.

package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"productsort"
	"productsort/internal/extsort"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/sort2d"
)

const streamKeys = 10_000_000

// stampWriter is the in-memory sink of SortStreamKeys that also notes
// when each sorted block arrived, so a key's latency is the time from
// the call's start to the Write that delivered it.
type stampWriter struct {
	origin time.Time
	keys   []Key
	ends   []int   // len(keys) after each Write
	at     []int64 // arrival of each Write, ns from origin
}

func (w *stampWriter) Write(keys []Key) error {
	w.at = append(w.at, int64(time.Since(w.origin)))
	w.keys = append(w.keys, keys...)
	w.ends = append(w.ends, len(w.keys))
	return nil
}

// delivered returns when the key of the nearest-rank q-quantile
// position reached the writer.
func (w *stampWriter) delivered(q float64) (int64, error) {
	rank, err := nearestRank(len(w.keys), q)
	if err != nil {
		return 0, err
	}
	return w.at[sort.SearchInts(w.ends, rank)], nil
}

// streamRep is one timed sort call.
type streamRep struct {
	wall, p50, p90 int64
	layers         layerTimes // traced calls only
	stats          *extsort.Stats
}

// layerTimes is where a traced call's wall time went.
type layerTimes struct {
	read, runSort, write int64
}

func runStream(cfg runConfig) (*outcome, error) {
	keys := newKeyGen(cfg.seed).fill(make([]Key, streamKeys))
	fp := fingerprint(keys)

	var c *productsort.CompiledNetwork
	var compiles []float64
	setup, err := repeatSetup(func() (time.Duration, error) {
		schedule.ResetCache() // every set-up compiles cold
		t0 := time.Now()
		nw, err := productsort.Hypercube(10)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		c, err = productsort.Compile(nw)
		compiles = append(compiles, float64(time.Since(t1)))
		return time.Since(t0), err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	out := &outcome{metrics: map[string]float64{}}
	var last []Key // the latest untraced output, compared exactly at the end
	check := func(w *stampWriter) {
		out.attempted++
		if err := checkFingerprint(w.keys, len(keys), fp); err != nil {
			out.failed++
			if out.wrong == nil {
				out.wrong = err
			}
		}
	}
	plainRep := func() (streamRep, error) {
		last = nil
		runtime.GC()
		w := &stampWriter{origin: time.Now()}
		_, err := c.SortStream(context.Background(), productsort.NewKeysReader(keys), w, productsort.StreamConfig{})
		wall := int64(time.Since(w.origin))
		if err != nil {
			return streamRep{}, err
		}
		check(w)
		last = w.keys
		return newStreamRep(w, wall, nil)
	}

	var plain, traced []streamRep
	var spans *tracer
	var prog *schedule.Program
	start := time.Now()
	if !cfg.trace {
		for len(plain) < 3 || time.Since(start) < cfg.window {
			rep, err := plainRep()
			if err != nil {
				return nil, err
			}
			plain = append(plain, rep)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		wall := medianOf(plain, func(r streamRep) int64 { return r.wall })
		out.metrics["setup_s"] = setup
		out.metrics["peak_rss_mb"] = rss
		out.metrics["p50_ms"] = medianOf(plain, func(r streamRep) int64 { return r.p50 }) / 1e6
		out.metrics["p90_ms"] = medianOf(plain, func(r streamRep) int64 { return r.p90 }) / 1e6
		out.metrics["keys_per_s"] = float64(len(keys)) / (wall / 1e9)
		out.metrics["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
	} else {
		// The same program Compile returned, reached through the cache.
		net, err := product.New(graph.K2(), 10)
		if err != nil {
			return nil, err
		}
		if prog, err = schedule.Compile(net, sort2d.Auto{}); err != nil {
			return nil, err
		}
		spans = &tracer{}
		for len(traced) < 2 || time.Since(start) < cfg.window {
			last = nil
			rep, err := tracedRep(prog, keys, start, int64(len(traced)+1), spans, check)
			if err != nil {
				return nil, err
			}
			traced = append(traced, rep)
			if rep, err = plainRep(); err != nil {
				return nil, err
			}
			plain = append(plain, rep)
		}
	}

	// The exact check doubles as the slices.Sort baseline.
	want := slices.Clone(keys)
	t0 := time.Now()
	slices.Sort(want)
	baseline := time.Since(t0)
	if last != nil && out.wrong == nil {
		if err := checkSortedAgainst(want, last); err != nil {
			out.failed++
			out.wrong = err
		}
	}
	if !cfg.trace {
		return out, nil
	}

	plainWall := medianOf(plain, func(r streamRep) int64 { return r.wall })
	tracedWall := medianOf(traced, func(r streamRep) int64 { return r.wall })
	read := medianOf(traced, func(r streamRep) int64 { return r.layers.read })
	runSort := medianOf(traced, func(r streamRep) int64 { return r.layers.runSort })
	write := medianOf(traced, func(r streamRep) int64 { return r.layers.write })
	merge := medianOf(traced, func(r streamRep) int64 { return r.wall - r.layers.read - r.layers.runSort - r.layers.write })
	st := traced[len(traced)-1].stats
	baseKeysPerS := float64(len(keys)) / baseline.Seconds()
	out.spans = spans
	out.metrics = map[string]float64{
		"schedule.compile_ms":             median(compiles) / 1e6,
		"schedule.kernel_ns_per_cl":       runSort / (float64(len(prog.LoweredComparators())) * float64(st.Runs)),
		"extsort.read_ms":                 read / 1e6,
		"extsort.runsort_ms":              runSort / 1e6,
		"extsort.write_ms":                write / 1e6,
		"extsort.merge_ms":                merge / 1e6,
		"extsort.runs":                    float64(st.Runs),
		"extsort.merge_passes":            float64(st.MergePasses),
		"extsort.spilled_bytes":           float64(st.SpilledBytes),
		"baseline.slices_sort_keys_per_s": baseKeysPerS,
		"stream.vs_slices_sort":           float64(len(keys)) / (plainWall / 1e9) / baseKeysPerS,
		"trace.overhead_pct":              100 * (tracedWall/plainWall - 1),
	}
	return out, nil
}

func newStreamRep(w *stampWriter, wall int64, stats *extsort.Stats) (streamRep, error) {
	p50, err := w.delivered(0.5)
	if err != nil {
		return streamRep{}, err
	}
	p90, err := w.delivered(0.9)
	if err != nil {
		return streamRep{}, err
	}
	return streamRep{wall: wall, p50: p50, p90: p90, stats: stats}, nil
}

// tracedRep runs the call SortStream makes, extsort.Sort over a slice
// reader and the network run sorter, with every call into the reader,
// the run sorter and the writer timed and recorded as a span.
// Span times are ns from origin.
func tracedRep(prog *schedule.Program, keys []Key, origin time.Time, id int64, spans *tracer, check func(*stampWriter)) (streamRep, error) {
	runtime.GC()
	lc := &layerClock{origin: origin, id: id, spans: spans}
	callStart := lc.since()
	w := &stampWriter{origin: time.Now()}
	stats, err := extsort.Sort(context.Background(),
		timedReader{extsort.NewSliceReader(keys), lc},
		timedWriter{w, lc},
		timedSorter{extsort.NewNetworkSorter(prog, 0), lc},
		extsort.Config{})
	wall := int64(time.Since(w.origin))
	if err != nil {
		return streamRep{}, err
	}
	spans.add("stream.sort", "", id, callStart, callStart+wall)
	check(w)
	rep, err := newStreamRep(w, wall, stats)
	rep.layers = lc.times
	return rep, err
}

// layerClock accumulates one traced call's time per layer and records
// its spans. extsort.Sort calls the reader, the run sorter and the
// writer from the caller's goroutine, so no locking is needed.
type layerClock struct {
	origin time.Time
	id     int64
	spans  *tracer
	times  layerTimes
}

func (lc *layerClock) since() int64 { return int64(time.Since(lc.origin)) }

func (lc *layerClock) record(name string, start int64, total *int64) {
	end := lc.since()
	*total += end - start
	lc.spans.add(name, "stream.sort", lc.id, start, end)
}

type timedReader struct {
	r  extsort.Reader
	lc *layerClock
}

func (t timedReader) Read(dst []Key) (int, error) {
	s := t.lc.since()
	n, err := t.r.Read(dst)
	t.lc.record("extsort.read", s, &t.lc.times.read)
	return n, err
}

type timedWriter struct {
	w  extsort.Writer
	lc *layerClock
}

func (t timedWriter) Write(keys []Key) error {
	s := t.lc.since()
	err := t.w.Write(keys)
	t.lc.record("extsort.write", s, &t.lc.times.write)
	return err
}

type timedSorter struct {
	s  extsort.RunSorter
	lc *layerClock
}

func (t timedSorter) MaxRun() int { return t.s.MaxRun() }

func (t timedSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	s := t.lc.since()
	err := t.s.SortRuns(ctx, runs)
	t.lc.record("extsort.runsort", s, &t.lc.times.runSort)
	return err
}

// medianOf is the median of one field over repeated calls.
func medianOf(reps []streamRep, field func(streamRep) int64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = float64(field(r))
	}
	return median(xs)
}
