package main

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"productsort"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/serve"
	"productsort/internal/workload"
)

// scheduleEntry is one topology's cold-vs-warm measurement.
type scheduleEntry struct {
	Network string `json:"network"`
	Family  string `json:"family"`
	Nodes   int    `json:"nodes"`
	Rounds  int    `json:"rounds"`
	// CompileNs is the wall-clock of one productsort.Compile with an
	// empty cache: the symbolic run that records, prices and checks
	// every phase, and the program's validation (best of 3).
	CompileNs int64 `json:"compileNs"`
	// ColdNs is the wall-clock of compile + one sort with an empty
	// cache: CompileNs plus the program's lazy lowering and the sort
	// (best of 3).
	ColdNs int64 `json:"coldNs"`
	// WarmPerSetNs is the wall-clock per key set when Sets sets are
	// replayed through the cached program by the worker pool, after a
	// one-set batch has built the program's lowered stream (whose
	// one-time cost is PruneNs).
	WarmPerSetNs int64 `json:"warmPerSetNs"`
	// Speedup is ColdNs / WarmPerSetNs.
	Speedup float64 `json:"speedup"`
	// ColsPerSetNs is the single-worker kernel time: the same
	// full-size batch replayed through the columnar kernel
	// (RunBatchColumnar), best of 3, per set.
	ColsPerSetNs int64 `json:"colsPerSetNs"`
	// Executed is how many of the program's comparators the columnar
	// kernel runs after the pruning pass; PruneNs is what lowering,
	// the pass and the block grouping cost, once per program (best of
	// 3, fresh programs).
	Executed int   `json:"executed"`
	PruneNs  int64 `json:"pruneNs"`
	// NsPerCompLane is the kernel alone (ColumnBatch.Run, no
	// transposes) per executed comparator per set, at the report's
	// KernelLanes sets (best of 7).
	NsPerCompLane float64 `json:"nsPerCompLane"`
}

// familyEntry is one cell of the cross-family head-to-head: the same
// request size served by the product, multiway and periodic
// constructions, measured on the axes the serve planner and the CI
// gate care about.
type familyEntry struct {
	Family      string `json:"family"`
	Network     string `json:"network"`
	Nodes       int    `json:"nodes"`
	Rounds      int    `json:"rounds"`
	Comparators int    `json:"comparators"`
	// CertMode and CertifiedMs record the certification run (exhaustive
	// proof inside the envelope, seeded sample above it) and its wall
	// time.
	CertMode    string  `json:"certMode"`
	CertifiedMs float64 `json:"certifiedMs"`
	// ColsPerSetNs is the columnar batch kernel's per-set replay time —
	// the emitted families run through the exact same kernel as the
	// product programs.
	ColsPerSetNs int64 `json:"colsPerSetNs"`
	// Executed and PruneNs are as in scheduleEntry.
	Executed int   `json:"executed"`
	PruneNs  int64 `json:"pruneNs"`
}

// plannerPick records which family the cross-family serve planner
// selects for one request size.
type plannerPick struct {
	RequestKeys int    `json:"requestKeys"`
	Family      string `json:"family"`
	Network     string `json:"network"`
	Rounds      int    `json:"rounds"`
}

// serverSetup is the set-up time of one default server: the best of 3
// NewServer calls, each server closed outside the timer.
type serverSetup struct {
	// Families is the server's ServerConfig.Families; empty for the
	// product-only server.
	Families      []string `json:"families"`
	ServerSetupNs int64    `json:"serverSetupNs"`
}

// scheduleReport is the BENCH_schedule.json document.
type scheduleReport struct {
	Generated string `json:"generated"`
	Sets      int    `json:"sets"`
	Workers   int    `json:"workers"`
	// Host names the machine and build; its Kernel is the body
	// dispatched for batches of at least four sets (avx512, avx2 or
	// scalar). KernelLanes is the batch width every entry's
	// NsPerCompLane is measured at.
	Host        hostHeader      `json:"host"`
	KernelLanes int             `json:"kernelLanes"`
	Entries     []scheduleEntry `json:"entries"`
	// Families is the product-vs-multiway-vs-periodic head-to-head at a
	// spread of power-of-two sizes.
	Families []familyEntry `json:"families"`
	// PlannerSelections shows which family a mixed-candidate serve
	// planner picks per request size; the bench fails unless at least
	// one non-product family wins somewhere.
	PlannerSelections []plannerPick `json:"plannerSelections"`
	// ServerSetups times the set-up of the product-only default server
	// and of the one with both emitted families.
	ServerSetups []serverSetup `json:"serverSetups"`
	// Compiles confirms the batch phase performed zero schedule
	// constructions beyond the cold ones.
	Compiles int64 `json:"compiles"`
}

// runScheduleBench contrasts cold compile+sort against warm batch
// replay on a spread of topologies and writes the report to path.
func runScheduleBench(path string, sets, workers int) error {
	if sets < 1 {
		return fmt.Errorf("schedule bench: -sets %d < 1", sets)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Each topology pairs the root network (for the public-API cold/warm
	// measurement) with its factor graph + dimension (so the columnar
	// kernel timing can reach the internal compiled program directly).
	type topo struct {
		nw     *productsort.Network
		factor *graph.Graph
		r      int
	}
	nets := []topo{}
	for _, build := range []struct {
		root   func() (*productsort.Network, error)
		factor func() *graph.Graph
		r      int
	}{
		{func() (*productsort.Network, error) { return productsort.Grid(8, 2) }, func() *graph.Graph { return graph.Path(8) }, 2},
		{func() (*productsort.Network, error) { return productsort.Grid(8, 3) }, func() *graph.Graph { return graph.Path(8) }, 3},
		{func() (*productsort.Network, error) { return productsort.Hypercube(9) }, func() *graph.Graph { return graph.K2() }, 9},
		{func() (*productsort.Network, error) { return productsort.Hypercube(10) }, func() *graph.Graph { return graph.K2() }, 10},
		{func() (*productsort.Network, error) { return productsort.PetersenCube(2) }, func() *graph.Graph { return graph.Petersen() }, 2},
		{func() (*productsort.Network, error) { return productsort.MeshConnectedTrees(3, 2) }, func() *graph.Graph { return graph.CompleteBinaryTree(3) }, 2},
	} {
		nw, err := build.root()
		if err != nil {
			return err
		}
		nets = append(nets, topo{nw: nw, factor: build.factor(), r: build.r})
	}
	gen, err := workload.ByName("uniform")
	if err != nil {
		return err
	}

	report := scheduleReport{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Sets:        sets,
		Workers:     workers,
		Host:        hostInfo(),
		KernelLanes: kernelLanes,
	}
	for _, tp := range nets {
		nw := tp.nw
		// Compile alone, then cold: empty cache, compile + one sort.
		// Best of 3 each to shed scheduler noise. The cold loop resets
		// the cache after the compile loop, so the report's compile
		// count does not see the extra compiles.
		var compile time.Duration
		for rep := 0; rep < 3; rep++ {
			schedule.ResetCache()
			start := time.Now()
			if _, err := productsort.Compile(nw); err != nil {
				return err
			}
			if d := time.Since(start); rep == 0 || d < compile {
				compile = d
			}
		}
		var cold time.Duration
		for rep := 0; rep < 3; rep++ {
			schedule.ResetCache()
			keys := gen(nw.Nodes(), int64(rep))
			start := time.Now()
			c, err := productsort.Compile(nw)
			if err != nil {
				return err
			}
			if _, err := c.Sort(keys); err != nil {
				return err
			}
			if d := time.Since(start); rep == 0 || d < cold {
				cold = d
			}
		}

		// Warm: M sets through the cached program across the pool.
		c, err := productsort.Compile(nw)
		if err != nil {
			return err
		}
		if err := c.SortBatch([][]productsort.Key{gen(nw.Nodes(), 99)}, 1); err != nil {
			return err
		}
		before := schedule.Stats().Compiles
		batch := make([][]productsort.Key, sets)
		for i := range batch {
			batch[i] = gen(nw.Nodes(), int64(i)+100)
		}
		start := time.Now()
		if err := c.SortBatch(batch, workers); err != nil {
			return err
		}
		warm := time.Since(start)
		if got := schedule.Stats().Compiles; got != before {
			return fmt.Errorf("schedule bench: batch recompiled (%d -> %d constructions)", before, got)
		}
		for i, set := range batch {
			if !productsort.IsSorted(set) {
				return fmt.Errorf("schedule bench: %s batch set %d not sorted", nw.Name(), i)
			}
		}

		perSet := warm.Nanoseconds() / int64(sets)
		e := scheduleEntry{
			Network:      nw.Name(),
			Family:       productsort.FamilyProduct,
			Nodes:        nw.Nodes(),
			Rounds:       c.Rounds(),
			CompileNs:    compile.Nanoseconds(),
			ColdNs:       cold.Nanoseconds(),
			WarmPerSetNs: perSet,
		}
		if perSet > 0 {
			e.Speedup = float64(e.ColdNs) / float64(perSet)
		}
		e.ColsPerSetNs, err = columnsPerSet(tp.factor, tp.r, sets, gen)
		if err != nil {
			return err
		}
		e.Executed, e.PruneNs, err = pruneCost(func() (*schedule.Program, error) {
			return schedule.CompileUncached(product.MustNew(tp.factor, tp.r), nil)
		})
		if err != nil {
			return err
		}
		if e.NsPerCompLane, err = kernelNsPerCompLane(product.MustNew(tp.factor, tp.r), gen); err != nil {
			return err
		}
		report.Entries = append(report.Entries, e)
		fmt.Printf("%-22s nodes=%-5d compile=%-10v cold=%-12v warm/set=%-12v speedup=%-8.1fx cols/set=%-10v executed=%d/%d prune=%v ns/cl=%.3f\n",
			nw.Name(), nw.Nodes(), compile.Round(time.Microsecond), cold.Round(time.Microsecond),
			time.Duration(perSet).Round(time.Microsecond), e.Speedup,
			time.Duration(e.ColsPerSetNs), e.Executed, c.Size(), time.Duration(e.PruneNs), e.NsPerCompLane)
	}
	report.Compiles = schedule.Stats().Compiles

	fams, err := familyHeadToHead(sets, gen)
	if err != nil {
		return err
	}
	report.Families = fams
	picks, err := plannerSelections()
	if err != nil {
		return err
	}
	report.PlannerSelections = picks
	if report.ServerSetups, err = serverSetups(); err != nil {
		return err
	}

	if err := writeJSONArtifact(path, report); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d sets, %d workers, %s kernel)\n", path, sets, workers, report.Host.Kernel)
	return nil
}

// familyHeadToHead races the three constructions at the same sizes:
// rounds and comparator counts from the compiled programs, certified
// wall time from the bitsliced prover, and per-set columnar replay time
// through the shared batch kernel.
func familyHeadToHead(sets int, gen workload.Gen) ([]familyEntry, error) {
	families := []string{productsort.FamilyProduct, productsort.FamilyMultiway, productsort.FamilyPeriodic}
	var out []familyEntry
	for _, size := range []int{16, 64} {
		for _, family := range families {
			c, err := productsort.CompileFamily(family, size)
			if err != nil {
				return nil, fmt.Errorf("family head-to-head: %s[%d]: %w", family, size, err)
			}
			crt, err := c.Certify(&productsort.CertifyOptions{Seed: 1})
			if err != nil {
				return nil, err
			}
			if !crt.Certified {
				return nil, fmt.Errorf("family head-to-head: %s[%d] failed certification: %+v",
					family, size, crt.Witness)
			}
			mode := "sampled"
			if crt.Exhaustive {
				mode = "exhaustive"
			}

			batch := make([][]productsort.Key, sets)
			for i := range batch {
				batch[i] = gen(size, int64(i)+300)
			}
			var cols time.Duration
			for rep := 0; rep < 3; rep++ {
				for i := range batch {
					copy(batch[i], gen(size, int64(i)+300))
				}
				start := time.Now()
				if err := c.SortBatch(batch, 1); err != nil {
					return nil, err
				}
				if d := time.Since(start); rep == 0 || d < cols {
					cols = d
				}
			}
			for i, set := range batch {
				if !productsort.IsSorted(set) {
					return nil, fmt.Errorf("family head-to-head: %s[%d] set %d not sorted", family, size, i)
				}
			}

			// The serving candidate of the same network: its name, and
			// fresh, unlowered programs for pruneCost.
			var cand serve.Candidate
			if family == productsort.FamilyProduct {
				cand = serve.ProductCandidate(product.MustNew(graph.K2(), bits.Len(uint(size))-1), nil)
			} else if cand, err = serve.FamilyCandidate(family, size); err != nil {
				return nil, err
			}
			e := familyEntry{
				Family:       family,
				Network:      cand.Name,
				Nodes:        size,
				Rounds:       c.Rounds(),
				Comparators:  c.Size(),
				CertMode:     mode,
				CertifiedMs:  float64(crt.Elapsed) / float64(time.Millisecond),
				ColsPerSetNs: cols.Nanoseconds() / int64(sets),
			}
			if e.Executed, e.PruneNs, err = pruneCost(cand.Build); err != nil {
				return nil, err
			}
			out = append(out, e)
			fmt.Printf("family %-9s n=%-4d net=%-14s rounds=%-4d comparators=%-6d executed=%-6d cert=%-10s %-8.1fms cols/set=%v\n",
				family, size, e.Network, e.Rounds, e.Comparators, e.Executed, mode, e.CertifiedMs,
				time.Duration(e.ColsPerSetNs))
		}
	}
	return out, nil
}

// plannerSelections builds the mixed-family serve planner (hypercubes
// plus both emitted families up to 64 keys) and records its pick per
// request size. At least one non-product selection is required — the
// cross-family planner existing is only worth shipping if it ever
// disagrees with the product-only one.
func plannerSelections() ([]plannerPick, error) {
	var cands []serve.Candidate
	for r := 1; r <= 6; r++ {
		cands = append(cands, serve.ProductCandidate(product.MustNew(graph.K2(), r), nil))
	}
	fam, err := serve.FamilyCandidates(
		[]string{productsort.FamilyMultiway, productsort.FamilyPeriodic}, 64)
	if err != nil {
		return nil, err
	}
	pl, err := serve.NewPlanner(append(cands, fam...))
	if err != nil {
		return nil, err
	}
	var picks []plannerPick
	nonProduct := 0
	for _, n := range []int{2, 4, 8, 16, 24, 32, 64} {
		plan, err := pl.For(n)
		if err != nil {
			return nil, err
		}
		if plan.Family != productsort.FamilyProduct {
			nonProduct++
		}
		picks = append(picks, plannerPick{
			RequestKeys: n, Family: plan.Family, Network: plan.Name(), Rounds: plan.Rounds,
		})
		fmt.Printf("planner n=%-4d -> %-9s %-14s rounds=%d\n", n, plan.Family, plan.Name(), plan.Rounds)
	}
	if nonProduct == 0 {
		return nil, fmt.Errorf("planner selections: no request size picked a non-product family")
	}
	return picks, nil
}

// serverSetups times the set-up of both default servers, product-only
// and with the multiway and periodic families.
func serverSetups() ([]serverSetup, error) {
	var out []serverSetup
	for _, fams := range [][]string{{}, {productsort.FamilyMultiway, productsort.FamilyPeriodic}} {
		var best time.Duration
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			srv, err := productsort.NewServer(productsort.ServerConfig{Families: fams})
			d := time.Since(start)
			if err != nil {
				return nil, err
			}
			if err := srv.Close(context.Background()); err != nil {
				return nil, err
			}
			if rep == 0 || d < best {
				best = d
			}
		}
		out = append(out, serverSetup{Families: fams, ServerSetupNs: best.Nanoseconds()})
		fmt.Printf("server set-up families=%v: %v\n", fams, best.Round(time.Microsecond))
	}
	return out, nil
}

// pruneCost lowers fresh programs from build, timing lowering plus the
// pruning pass (best of 3), and returns the executed comparator count
// with that time.
func pruneCost(build func() (*schedule.Program, error)) (executed int, ns int64, err error) {
	var best time.Duration
	for rep := 0; rep < 3; rep++ {
		prog, err := build()
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		executed = prog.Executed()
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
	}
	return executed, best.Nanoseconds(), nil
}

// kernelLanes is the batch width NsPerCompLane is measured at: the
// per-worker tile of SortStream's default 170-run batch on two CPUs.
const kernelLanes = 85

// kernelNsPerCompLane times the columnar kernel alone over kernelLanes
// full-size sets of net's cached program — ColumnBatch.Run, with the
// transposes outside the clock and the sets reloaded before every run —
// and returns the best of 7 runs per executed comparator per set.
func kernelNsPerCompLane(net *product.Network, gen workload.Gen) (float64, error) {
	prog, err := schedule.Compile(net, nil)
	if err != nil {
		return 0, err
	}
	sets := make([][]productsort.Key, kernelLanes)
	for i := range sets {
		sets[i] = gen(net.Nodes(), int64(i)+500)
	}
	var cb schedule.ColumnBatch
	cb.Reset(net.Nodes(), kernelLanes)
	var best time.Duration
	for rep := -1; rep < 7; rep++ { // rep -1 warms the lowered stream
		cb.LoadSnake(sets)
		start := time.Now()
		cb.Run(prog)
		if d := time.Since(start); rep == 0 || (rep > 0 && d < best) {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(prog.Executed()*kernelLanes), nil
}

// columnsPerSet times a full-size batch through the columnar kernel
// (RunBatchColumnar), single worker so the number measures the kernel
// and not scheduling. Best of 3 runs, per-set nanoseconds.
func columnsPerSet(factor *graph.Graph, r, sets int, gen workload.Gen) (int64, error) {
	net := product.MustNew(factor, r)
	prog, err := schedule.Compile(net, nil)
	if err != nil {
		return 0, err
	}
	nodes := net.Nodes()
	pristine := make([][]productsort.Key, sets)
	for i := range pristine {
		pristine[i] = gen(nodes, int64(i)+200)
	}
	batch := make([][]productsort.Key, sets)
	for i := range batch {
		batch[i] = make([]productsort.Key, nodes)
	}
	reload := func() {
		for i := range batch {
			copy(batch[i], pristine[i])
		}
	}

	buf := schedule.NewColumnBuffer()
	// Warm the pool so the timed runs see the steady-state path.
	reload()
	if err := schedule.RunBatchColumnar(prog, batch, 1, buf); err != nil {
		return 0, err
	}
	var best time.Duration
	for rep := 0; rep < 3; rep++ {
		reload()
		start := time.Now()
		if err := schedule.RunBatchColumnar(prog, batch, 1, buf); err != nil {
			return 0, err
		}
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
	}
	for i, set := range batch {
		if !productsort.IsSorted(set) {
			return 0, fmt.Errorf("columnar replay: set %d not sorted", i)
		}
	}
	return best.Nanoseconds() / int64(sets), nil
}
