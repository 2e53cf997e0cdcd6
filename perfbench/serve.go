// The serve-light workload: open-loop Poisson traffic with Zipf request
// sizes against productsort.NewServer. Inputs and the arrival schedule
// are generated before the clock starts, every reachable plan is warmed
// during set-up, and each request is timed from its scheduled send time
// to receipt of its reply, so a stalled sender shows up as latency.

package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"productsort"
	"productsort/internal/schedule"
)

type serveWorkload struct {
	rate     float64  // offered requests per second
	maxSize  int      // request sizes are Zipf(zipfS) over 1..maxSize
	families []string // ServerConfig.Families
}

// serveLight is open-loop traffic at 2,000 req/s with Zipf(1.2) sizes
// 1..64 against the families server: more than 99% of latency is the
// 2 ms linger, so batching and admission do the work and the kernel
// costs microseconds. It also builds every bucket the families planner
// offers, most of which no size can reach.
var serveLight = serveWorkload{rate: 2000, maxSize: 64, families: []string{productsort.FamilyMultiway, productsort.FamilyPeriodic}}

const (
	zipfS = 1.2
	// poolSets is how many key sets requests draw their keys from; the
	// server copies what it is given, so sharing the pool is safe.
	poolSets = 64
	// exactEvery keeps every exactEvery-th reply for the exact
	// comparison with slices.Sort after the window; every reply gets
	// the fingerprint check inside it.
	exactEvery = 64
)

// pace sleeps the sender's thread for d ns. Runtime timers fire up to a
// millisecond late in a mostly idle process, which would bunch the
// arrivals into ticks; a thread sleep meets the schedule within tens of
// microseconds. The sleeping thread keeps its processor, which a
// workload whose server needs every processor could not afford.
func pace(d int64) {
	ts := syscall.NsecToTimespec(d)
	syscall.Nanosleep(&ts, nil) // a wake-up by a signal is retried by the caller
}

// traffic is one open-loop arrival schedule and its inputs. Request i
// sorts pool[set[i]][off[i] : off[i]+size[i]].
type traffic struct {
	pool   [][]Key
	prefix [][]uint64 // prefix fingerprints of each pool set
	due    []int64    // scheduled send time, ns from the window's origin
	set    []int32
	off    []int32
	size   []int32
}

// traffic draws the schedule. Arrivals are rate·window instants placed
// uniformly at random in the window, which is a Poisson process
// conditioned on its count; sizes are Zipf(zipfS) quantiles taken at
// stratified points, then shuffled. Every seed thus offers the same
// work, and the seed decides its order, its timing and its keys; with
// independent draws the seed alone would move latency and throughput.
func (w serveWorkload) traffic(seed int64, window time.Duration) *traffic {
	tr := &traffic{}
	kg := newKeyGen(seed)
	for s := 0; s < poolSets; s++ {
		keys := kg.fill(make([]Key, w.maxSize))
		tr.pool = append(tr.pool, keys)
		tr.prefix = append(tr.prefix, prefixFingerprints(keys))
	}
	n := int(w.rate * window.Seconds())
	rng := rand.New(rand.NewSource(seed + 1))
	tr.due = make([]int64, n)
	for i := range tr.due {
		tr.due[i] = rng.Int63n(int64(window))
	}
	slices.Sort(tr.due)
	cdf := zipfCDF(zipfS, w.maxSize)
	tr.size = make([]int32, n)
	for i := range tr.size {
		u := (float64(i) + rng.Float64()) / float64(n)
		tr.size[i] = int32(1 + sort.SearchFloat64s(cdf, u))
	}
	rng.Shuffle(n, func(i, j int) { tr.size[i], tr.size[j] = tr.size[j], tr.size[i] })
	tr.set = make([]int32, n)
	tr.off = make([]int32, n)
	for i, size := range tr.size {
		tr.set[i] = int32(rng.Intn(poolSets))
		tr.off[i] = int32(rng.Intn(w.maxSize - int(size) + 1))
	}
	return tr
}

// zipfCDF returns cdf[k-1] = P(size <= k) for sizes 1..maxSize with
// P(size = k) proportional to k^-s, the law math/rand.NewZipf(r, s, 1,
// maxSize-1) samples size-1 from.
func zipfCDF(s float64, maxSize int) []float64 {
	cdf := make([]float64, maxSize)
	var sum float64
	for k := 1; k <= maxSize; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[maxSize-1] = 1
	return cdf
}

func (tr *traffic) keys(i int) []Key {
	off := tr.off[i]
	return tr.pool[tr.set[i]][off : off+tr.size[i]]
}

func (tr *traffic) fingerprint(i int) uint64 {
	p := tr.prefix[tr.set[i]]
	return p[tr.off[i]+tr.size[i]] - p[tr.off[i]]
}

// warmSizes are the request sizes set-up submits: every size up to 32,
// then steps of at most 5% plus each power of two and its successor, so
// every plan a size in 1..maxSize maps to is compiled before timing.
func warmSizes(maxSize int) []int {
	var sizes []int
	for n := 1; n <= maxSize; n = max(n+1, int(math.Ceil(float64(n)*1.05))) {
		sizes = append(sizes, n)
	}
	for p := 2; p <= maxSize; p *= 2 {
		sizes = append(sizes, p, min(p+1, maxSize))
	}
	sizes = append(sizes, maxSize)
	slices.Sort(sizes)
	return slices.Compact(sizes)
}

// setUp builds the server and warms every plan the workload's sizes can
// reach. It returns the warmed networks by name, with their family.
func (w serveWorkload) setUp(keys []Key) (*productsort.Server, map[string]string, error) {
	srv, err := productsort.NewServer(productsort.ServerConfig{Families: w.families})
	if err != nil {
		return nil, nil, err
	}
	sizes := warmSizes(w.maxSize)
	replies := make([]<-chan productsort.SortedReply, len(sizes))
	for i, n := range sizes {
		if replies[i], err = srv.Submit(context.Background(), keys[:n]); err != nil {
			srv.Close(context.Background())
			return nil, nil, fmt.Errorf("warming size %d: %w", n, err)
		}
	}
	warmed := map[string]string{}
	for i, ch := range replies {
		rep := <-ch
		if err == nil && rep.Err != nil {
			err = fmt.Errorf("warming size %d: %w", sizes[i], rep.Err)
		}
		if err == nil {
			err = checkExact(keys[:sizes[i]], rep.Keys)
		}
		warmed[rep.Network] = rep.Family
	}
	if err != nil {
		srv.Close(context.Background())
		return nil, nil, err
	}
	return srv, warmed, nil
}

const (
	statusOK = iota + 1
	statusFailed
	statusWrong
)

// reqResult is what one request left behind. Times are ns from the
// window's origin; submitted is stamped only in the traced pass.
type reqResult struct {
	sent, submitted, received int64
	wait                      int64 // Reply.Wait
	batch                     int   // Reply.BatchSize
	network                   string
	status                    int
	err                       error
	keys                      []Key // kept for the exact check after the window
}

// drive replays tr against srv as an open loop: each request is sent at
// its scheduled time or, if the sender is behind, at once. One goroutine
// per request receives and fingerprint-checks its reply.
func drive(srv *productsort.Server, tr *traffic, traced bool) []reqResult {
	res := make([]reqResult, len(tr.due))
	ctx := context.Background()
	var wg sync.WaitGroup
	origin := time.Now()
	for i, due := range tr.due {
		now := int64(time.Since(origin))
		for now < due {
			pace(due - now)
			now = int64(time.Since(origin))
		}
		r := &res[i]
		r.sent = now
		ch, err := srv.Submit(ctx, tr.keys(i))
		if traced {
			r.submitted = int64(time.Since(origin))
		}
		if err != nil { // shed or refused: counted as failed
			r.status, r.err = statusFailed, err
			continue
		}
		wg.Add(1)
		go func(r *reqResult, n int, fp uint64, keep bool) {
			defer wg.Done()
			rep := <-ch
			r.received = int64(time.Since(origin))
			r.wait, r.batch, r.network = int64(rep.Wait), rep.BatchSize, rep.Network
			if rep.Err != nil {
				r.status, r.err = statusFailed, rep.Err
				return
			}
			if err := checkFingerprint(rep.Keys, n, fp); err != nil {
				r.status, r.err = statusWrong, err
				return
			}
			r.status = statusOK
			if keep {
				r.keys = rep.Keys
			}
		}(r, int(tr.size[i]), tr.fingerprint(i), i%exactEvery == 0)
	}
	wg.Wait()
	return res
}

// passSummary condenses one pass over the traffic.
type passSummary struct {
	attempted, failed, ok int64
	wrong                 error
	lat                   []int64 // ascending; a request not answered correctly counts as never answered
	keys                  int64   // keys in correct replies
	end                   int64   // last receipt, ns from the origin
}

func summarize(tr *traffic, res []reqResult, warmed map[string]string) (passSummary, error) {
	s := passSummary{attempted: int64(len(res)), lat: make([]int64, 0, len(res))}
	for i := range res {
		r := &res[i]
		if r.status != statusOK {
			s.failed++
			s.lat = append(s.lat, math.MaxInt64)
			if r.status == statusWrong && s.wrong == nil {
				s.wrong = fmt.Errorf("request %d (%d keys): %w", i, tr.size[i], r.err)
			}
			continue
		}
		if _, ok := warmed[r.network]; !ok {
			return s, fmt.Errorf("request %d rode plan %s, which set-up did not warm", i, r.network)
		}
		if r.keys != nil && s.wrong == nil {
			if err := checkExact(tr.keys(i), r.keys); err != nil {
				s.wrong = fmt.Errorf("request %d (%d keys): %w", i, tr.size[i], err)
			}
		}
		s.ok++
		s.keys += int64(tr.size[i])
		s.lat = append(s.lat, r.received-tr.due[i])
		s.end = max(s.end, r.received)
	}
	slices.Sort(s.lat)
	return s, nil
}

func (w serveWorkload) run(cfg runConfig) (*outcome, error) {
	window := cfg.window
	if cfg.trace {
		window /= 2 // an untraced and a traced pass share the window
	}
	tr := w.traffic(cfg.seed, window)
	var srv *productsort.Server
	var warmed map[string]string
	setup, err := repeatSetup(func() (time.Duration, error) {
		if srv != nil {
			srv.Close(context.Background())
		}
		t0 := time.Now()
		s, nets, err := w.setUp(tr.pool[0])
		d := time.Since(t0)
		srv, warmed = s, nets
		return d, err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer srv.Close(context.Background())

	runtime.GC()
	plain, err := summarize(tr, drive(srv, tr, false), warmed)
	if err != nil {
		return nil, err
	}
	pct, err := quantiles(plain.lat, 0.5, 0.9)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	if cfg.trace {
		return traceLayers(srv, tr, warmed, plain.wrong, pct[0], cfg.seed)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return &outcome{
		attempted: plain.attempted,
		failed:    plain.failed,
		wrong:     plain.wrong,
		metrics: map[string]float64{
			"setup_s":     setup,
			"peak_rss_mb": rss,
			"p50_ms":      float64(pct[0]) / 1e6,
			"p90_ms":      float64(pct[1]) / 1e6,
			"keys_per_s":  float64(plain.keys) / (float64(plain.end) / 1e9),
			"ok_ratio":    float64(plain.ok) / float64(plain.attempted),
		},
	}, nil
}

// traceLayers replays the traffic a second time with Submit timed and
// the server's counters and the allocator read around the window, then
// attributes the latency to layers. plainWrong and plainP50 are the
// untraced pass's first wrong answer and median latency.
func traceLayers(srv *productsort.Server, tr *traffic, warmed map[string]string, plainWrong error, plainP50, seed int64) (*outcome, error) {
	before := bucketFlushes(srv)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res := drive(srv, tr, true)
	runtime.ReadMemStats(&m1)
	after := bucketFlushes(srv)
	s, err := summarize(tr, res, warmed)
	if err != nil {
		return nil, err
	}
	if s.wrong == nil {
		s.wrong = plainWrong
	}
	if s.ok == 0 {
		return nil, errors.New("no request was answered")
	}

	spans := &tracer{}
	var submit, late, wait []int64
	var batchSum int64
	replies := map[string]int64{} // correct replies per network
	for i := range res {
		r := &res[i]
		id := int64(i + 1)
		submit = append(submit, r.submitted-r.sent)
		late = append(late, r.sent-tr.due[i])
		spans.add("serve.submit", "serve.request", id, r.sent, r.submitted)
		if r.status != statusOK {
			spans.add("serve.request", "", id, tr.due[i], r.submitted)
			continue
		}
		wait = append(wait, r.wait)
		batchSum += int64(r.batch)
		replies[r.network]++
		spans.add("serve.request", "", id, tr.due[i], r.received)
		spans.add("serve.wait", "serve.request", id, r.received-r.wait, r.received)
	}
	sub, err := quantiles(submit, 0.5, 0.99)
	if err != nil {
		return nil, fmt.Errorf("submit time: %w", err)
	}
	wt, err := quantiles(wait, 0.5, 0.99)
	if err != nil {
		return nil, fmt.Errorf("wait: %w", err)
	}
	lt, err := quantiles(late, 0.99)
	if err != nil {
		return nil, fmt.Errorf("generator lateness: %w", err)
	}
	tracedP50, err := quantile(s.lat, 0.5)
	if err != nil {
		return nil, err
	}

	// Compile time of every warmed plan, each from a cold compile cache.
	var compile time.Duration
	for name, family := range warmed {
		build, err := planCompiler(name, family, srv.MaxKeys())
		if err != nil {
			return nil, err
		}
		schedule.ResetCache()
		t0 := time.Now()
		if _, err := build(); err != nil {
			return nil, err
		}
		compile += time.Since(t0)
	}

	// Kernel time: each used plan's flush count times its calibrated
	// per-flush kernel time at its observed mean batch width.
	var kernelNs, lanes float64
	var flushes int64
	for name, n := range replies {
		f := after[name] - before[name]
		if f <= 0 {
			return nil, fmt.Errorf("plan %s answered %d requests in no flush", name, n)
		}
		flushes += f
		build, err := planCompiler(name, warmed[name], srv.MaxKeys())
		if err != nil {
			return nil, err
		}
		c, err := build()
		if err != nil {
			return nil, err
		}
		width := max(int(math.Round(float64(n)/float64(f))), 1)
		ns, err := calibrate(c, width, seed)
		if err != nil {
			return nil, fmt.Errorf("calibrating %s: %w", name, err)
		}
		kernelNs += float64(f) * ns
		lanes += float64(f) * float64(c.Size()*width)
	}
	var waitSum float64
	for _, v := range wait {
		waitSum += float64(v)
	}

	return &outcome{
		attempted: s.attempted,
		failed:    s.failed,
		wrong:     s.wrong,
		spans:     spans,
		metrics: map[string]float64{
			"serve.submit_us.p50":       float64(sub[0]) / 1e3,
			"serve.submit_us.p99":       float64(sub[1]) / 1e3,
			"serve.wait_ms.p50":         float64(wt[0]) / 1e6,
			"serve.wait_ms.p99":         float64(wt[1]) / 1e6,
			"serve.batch_mean":          float64(batchSum) / float64(s.ok),
			"serve.flushes":             float64(flushes),
			"serve.buckets_built":       float64(len(after)),
			"serve.buckets_used":        float64(len(replies)),
			"serve.allocs_per_req":      float64(m1.Mallocs-m0.Mallocs) / float64(s.ok),
			"serve.kernel_share":        kernelNs / waitSum,
			"serve.gen_late_ms.p99":     float64(lt[0]) / 1e6,
			"schedule.compile_ms":       float64(compile) / 1e6,
			"schedule.kernel_ns_per_cl": kernelNs / lanes,
			"trace.overhead_pct":        100 * (float64(tracedP50)/float64(plainP50) - 1),
		},
	}, nil
}

// bucketFlushes reads the serve.bucket.<network>.flushes counters: one
// per bucket the server built.
func bucketFlushes(srv *productsort.Server) map[string]int64 {
	out := map[string]int64{}
	for name, v := range srv.Metrics().Snapshot().Counters {
		if net, ok := strings.CutPrefix(name, "serve.bucket."); ok {
			if net, ok := strings.CutSuffix(net, ".flushes"); ok {
				out[net] = v
			}
		}
	}
	return out
}

// planCompiler returns a function that compiles the serving network
// named in a reply: a product network from the default serving set, or
// an emitted family member "<engine>[<nodes>]".
func planCompiler(name, family string, maxKeys int) (func() (*productsort.CompiledNetwork, error), error) {
	if family != productsort.FamilyProduct {
		open := strings.LastIndexByte(name, '[')
		nodes, err := strconv.Atoi(strings.TrimSuffix(name[open+1:], "]"))
		if open < 0 || err != nil {
			return nil, fmt.Errorf("cannot read the size of emitted network %q", name)
		}
		return func() (*productsort.CompiledNetwork, error) { return productsort.CompileFamily(family, nodes) }, nil
	}
	for _, nw := range productsort.DefaultServingNetworks(maxKeys) {
		if nw.Name() == name {
			return func() (*productsort.CompiledNetwork, error) { return productsort.Compile(nw) }, nil
		}
	}
	return nil, fmt.Errorf("no default serving network is named %q", name)
}

// calibrate returns the median time of one flush-shaped replay of c's
// program: width full key sets through the columnar batch kernel on one
// worker, as a server flush runs it.
func calibrate(c *productsort.CompiledNetwork, width int, seed int64) (float64, error) {
	nodes := c.Network().Nodes()
	kg := newKeyGen(seed)
	tmpl := make([][]Key, width)
	sets := make([][]Key, width)
	for i := range tmpl {
		tmpl[i] = kg.fill(make([]Key, nodes))
		sets[i] = make([]Key, nodes)
	}
	var times []float64
	var total time.Duration
	for len(times) < 5 || (total < 20*time.Millisecond && len(times) < 1000) {
		for i := range sets {
			copy(sets[i], tmpl[i])
		}
		t0 := time.Now()
		if err := c.SortBatch(sets, 1); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, float64(d))
	}
	return median(times), nil
}
