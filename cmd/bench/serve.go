// The serve mode: open-loop load against the batching sort service.
//
// For each offered load level the driver replays a deterministic
// arrival trace (Poisson gaps from internal/workload) with Zipf request
// sizes, submits asynchronously, and measures per-request latency from
// the server's own Wait stamps. The output table and BENCH_serve.json
// report throughput, shed counts and p50/p95/p99 latency versus offered
// load — the saturation curve a capacity plan reads off.

package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"productsort"
	"productsort/internal/workload"
)

// serveLevel is one offered-load measurement.
type serveLevel struct {
	OfferedPerSec    float64 `json:"offered_per_sec"`
	Requests         int     `json:"requests"`
	Completed        int     `json:"completed"`
	Shed             int     `json:"shed"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	P50Ms            float64 `json:"p50_ms"`
	P95Ms            float64 `json:"p95_ms"`
	P99Ms            float64 `json:"p99_ms"`
	MeanBatch        float64 `json:"mean_batch"`
	Elapsed          string  `json:"elapsed"`
}

// serveReport is the BENCH_serve.json schema.
type serveReport struct {
	MaxKeys  int          `json:"max_keys"`
	SizeMin  int          `json:"size_min"`
	SizeMax  int          `json:"size_max"`
	ZipfS    float64      `json:"zipf_s"`
	Duration string       `json:"duration_per_level"`
	Seed     int64        `json:"seed"`
	Levels   []serveLevel `json:"levels"`
}

// parseLoads splits a comma-separated list of offered loads (req/sec).
func parseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bench: bad load %q", part)
		}
		loads = append(loads, v)
	}
	if len(loads) == 0 {
		return nil, errors.New("bench: no offered loads")
	}
	return loads, nil
}

// runServeBench drives the serving benchmark and writes the artifact.
func runServeBench(outPath, loadsCSV string, dur time.Duration, sizeMax int, seed int64) error {
	loads, err := parseLoads(loadsCSV)
	if err != nil {
		return err
	}
	if sizeMax < 1 {
		return fmt.Errorf("bench: -servesizes %d < 1", sizeMax)
	}
	const zipfS = 1.2
	report := serveReport{
		SizeMin:  1,
		SizeMax:  sizeMax,
		ZipfS:    zipfS,
		Duration: dur.String(),
		Seed:     seed,
	}

	fmt.Printf("serve: open-loop load, Zipf(%.1f) sizes 1..%d, %v per level\n\n", zipfS, sizeMax, dur)
	fmt.Printf("%12s %10s %10s %8s %12s %9s %9s %9s %10s\n",
		"offered/s", "requests", "completed", "shed", "through/s", "p50 ms", "p95 ms", "p99 ms", "meanbatch")

	for li, load := range loads {
		// A fresh server per level: no batch state or compiled program
		// leaks between levels (each server's buckets compile their own
		// programs on their first flush).
		srv, err := productsort.NewServer(productsort.ServerConfig{MaxKeys: sizeMax})
		if err != nil {
			return err
		}
		if report.MaxKeys == 0 {
			report.MaxKeys = srv.MaxKeys()
		}
		n := int(load * dur.Seconds())
		if n < 1 {
			n = 1
		}
		levelSeed := seed + int64(li)
		gaps := workload.PoissonArrivals(n, load, levelSeed)
		sizes := workload.ZipfSizes(n, 1, sizeMax, zipfS, levelSeed+1)

		type outcome struct {
			wait  time.Duration
			batch int
			err   error
		}
		results := make([]outcome, n)
		var wg sync.WaitGroup
		start := time.Now()
		next := start
		for i := 0; i < n; i++ {
			next = next.Add(gaps[i])
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			keys := workload.Uniform(sizes[i], levelSeed+int64(i))
			ch, err := srv.Submit(context.Background(), keys)
			if err != nil {
				results[i] = outcome{err: err}
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rep := <-ch
				results[i] = outcome{wait: rep.Wait, batch: rep.BatchSize, err: rep.Err}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if err := srv.Close(context.Background()); err != nil {
			return err
		}

		var lat []time.Duration
		var shed, completed, batchSum int
		for _, r := range results {
			switch {
			case r.err == nil:
				lat = append(lat, r.wait)
				batchSum += r.batch
				completed++
			case errors.Is(r.err, productsort.ErrQueueFull):
				shed++
			default:
				return fmt.Errorf("bench: serve request failed: %w", r.err)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(p float64) float64 {
			if len(lat) == 0 {
				return 0
			}
			idx := int(p * float64(len(lat)-1))
			return float64(lat[idx]) / float64(time.Millisecond)
		}
		meanBatch := 0.0
		if completed > 0 {
			meanBatch = float64(batchSum) / float64(completed)
		}
		lv := serveLevel{
			OfferedPerSec:    load,
			Requests:         n,
			Completed:        completed,
			Shed:             shed,
			ThroughputPerSec: float64(completed) / elapsed.Seconds(),
			P50Ms:            pct(0.50),
			P95Ms:            pct(0.95),
			P99Ms:            pct(0.99),
			MeanBatch:        meanBatch,
			Elapsed:          elapsed.Round(time.Millisecond).String(),
		}
		report.Levels = append(report.Levels, lv)
		fmt.Printf("%12.0f %10d %10d %8d %12.0f %9.3f %9.3f %9.3f %10.1f\n",
			lv.OfferedPerSec, lv.Requests, lv.Completed, lv.Shed,
			lv.ThroughputPerSec, lv.P50Ms, lv.P95Ms, lv.P99Ms, lv.MeanBatch)
	}

	fmt.Println()
	if err := writeJSONArtifact(outPath, report); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
