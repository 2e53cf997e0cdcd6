// Command bench regenerates the paper-reproduction tables and figures
// (experiments E1–E8 from DESIGN.md) and prints them to stdout.
//
// Usage:
//
//	bench                  # run all experiments
//	bench -exp e3          # run one experiment
//	bench -list            # list experiments
//	bench -trace t.json    # trace one sort, write a Chrome trace
//	bench -schedule        # cold-vs-warm schedule benchmark
//	bench -chaos           # resilient sorts under injected faults
//	bench -contend         # plan-store contention sweep across GOMAXPROCS
//	bench -cert            # bitsliced 0-1 certification of compiled programs
//	bench -extsort         # streaming external sort tier vs slices.Sort
//	bench -mode extsort    # same modes by name; unknown names fail the run
//
// Profiling flags (-cpuprofile, -memprofile) apply to every mode, so a
// single run produces a flamegraph-able profile alongside its output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"productsort/internal/cli"
	"productsort/internal/exp"
)

func main() { os.Exit(run()) }

// run executes the selected mode and returns the process exit code.
// All failure paths return (never os.Exit) so profile flushing and
// other defers run.
func run() int {
	expID := flag.String("exp", "", "experiment id (e1..e14); empty runs all")
	list := flag.Bool("list", false, "list experiments and exit")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
	csvDir := flag.String("csv", "", "also write each table/figure as CSV into <dir>")
	schedMode := flag.Bool("schedule", false, "benchmark cold compile vs warm replay of the cached phase program and exit")
	schedOut := flag.String("scheduleout", "BENCH_schedule.json", "output path for -schedule")
	schedSets := flag.Int("sets", 64, "key sets per topology for -schedule")
	schedWorkers := flag.Int("workers", 0, "worker pool size for -schedule and -cert (0 = GOMAXPROCS)")
	chaosMode := flag.Bool("chaos", false, "run resilient sorts under injected faults across topologies and exit")
	chaosOut := flag.String("chaosout", "BENCH_chaos.json", "output path for -chaos")
	chaosSeeds := flag.Int("seeds", 5, "fault seeds per (topology, scenario) cell for -chaos")
	chaosBase := flag.Int64("chaosbase", 0, "fault seed base offset for -chaos (CI matrix legs use distinct bases)")
	serveMode := flag.Bool("serve", false, "drive the batching sort service with open-loop load and exit")
	serveOut := flag.String("serveout", "BENCH_serve.json", "output path for -serve")
	serveDur := flag.Duration("servedur", 2*time.Second, "measurement time per offered-load level for -serve")
	serveLoads := flag.String("loads", "2000,5000,10000,15000,20000,30000", "comma-separated offered loads (requests/sec) for -serve")
	serveSizes := flag.Int("servesizes", 64, "largest request size for -serve (Zipf sizes in 1..this)")
	serveSeed := flag.Int64("serveseed", 1, "arrival/size seed for -serve")
	contendMode := flag.Bool("contend", false, "sweep plan-store contention across GOMAXPROCS (old vs new store) and exit")
	contendOut := flag.String("contendout", "BENCH_contend.json", "output path for -contend")
	contendDur := flag.Duration("contenddur", 400*time.Millisecond, "measurement time per (store, procs) cell for -contend")
	contendProcs := flag.String("contendprocs", "1,4,0", "comma-separated GOMAXPROCS values for -contend (0 = all CPUs)")
	contendMinGain := flag.Float64("mingain", 0, "fail -contend unless the lock-free store's max-proc throughput is >= this multiple of its single-proc throughput (0 disables; auto-skips when the host has fewer CPUs than the sweep)")
	certMode := flag.Bool("cert", false, "certify built-in family/engine programs with the bitsliced 0-1 engine and exit")
	certOut := flag.String("certout", "BENCH_cert.json", "output path for -cert")
	certMax := flag.Int("certmax", 20, "largest key count certified exhaustively for -cert")
	certSample := flag.Int("certsample", 1<<16, "sampled-mode vector count for -cert")
	extsortMode := flag.Bool("extsort", false, "benchmark the streaming external sort tier against slices.Sort and exit")
	extsortOut := flag.String("extsortout", "BENCH_extsort.json", "output path for -extsort")
	extsortSizes := flag.String("extsortsizes", "10000,100000,1000000,10000000", "comma-separated input sizes for -extsort's size sweep")
	extsortFanins := flag.String("fanins", "2,4,8,16,32,64", "comma-separated merge fan-ins for -extsort's fan-in sweep")
	extsortSeed := flag.Int64("extsortseed", 1, "workload seed for -extsort")
	mode := flag.String("mode", "", "select a mode by name (exp, schedule, chaos, serve, contend, cert, extsort) instead of the boolean flags; unknown names fail the run")
	tracePath := flag.String("trace", "", "trace one sort on the selected network (-network/-n/-r), write Chrome trace_event JSON to this path, and exit")
	metricsPath := flag.String("metricsout", "", "with -trace: also write the metrics registry snapshot as JSON to this path")
	traceSeed := flag.Int64("traceseed", 1, "workload seed for -trace")
	faultSeed := flag.Int64("faultseed", 0, "with -trace: overlay deterministic faults with this seed (0 = fault-free)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	netFlags := cli.RegisterNetworkFlags(nil)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// -mode is the named-dispatch equivalent of the boolean mode flags.
	// An unknown name must fail loudly with the valid list — falling
	// through to "run all experiments" would silently run the wrong
	// thing for minutes and leave CI none the wiser.
	if *mode != "" {
		switch *mode {
		case "exp":
			// The default experiment path below.
		case "schedule":
			*schedMode = true
		case "chaos":
			*chaosMode = true
		case "serve":
			*serveMode = true
		case "contend":
			*contendMode = true
		case "cert":
			*certMode = true
		case "extsort":
			*extsortMode = true
		default:
			fmt.Fprintf(os.Stderr, "bench: unknown -mode %q (valid: exp, schedule, chaos, serve, contend, cert, extsort)\n", *mode)
			return 2
		}
	}

	switch {
	case *tracePath != "":
		if err := runTrace(netFlags, *tracePath, *metricsPath, *traceSeed, *faultSeed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case *schedMode:
		if err := runScheduleBench(*schedOut, *schedSets, *schedWorkers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case *chaosMode:
		if err := runChaosBench(*chaosOut, *chaosSeeds, *chaosBase); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case *serveMode:
		if err := runServeBench(*serveOut, *serveLoads, *serveDur, *serveSizes, *serveSeed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case *contendMode:
		if err := runContendBench(*contendOut, *contendProcs, *contendDur, *contendMinGain); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case *certMode:
		if err := runCertBench(*certOut, *certMax, *certSample, *schedWorkers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case *extsortMode:
		if err := runExtsortBench(*extsortOut, *extsortSizes, *extsortFanins, *extsortSeed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	for _, d := range []string{*outDir, *csvDir} {
		if d != "" {
			if err := os.MkdirAll(d, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}
	var toRun []exp.Experiment
	if *expID == "" {
		toRun = exp.All()
	} else {
		e, err := exp.ByID(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		toRun = []exp.Experiment{e}
	}
	for _, e := range toRun {
		start := time.Now()
		res := e.Run()
		res.Render(os.Stdout)
		if *outDir != "" {
			if err := renderToFile(res, filepath.Join(*outDir, e.ID+".txt")); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		if *csvDir != "" {
			if _, err := res.WriteCSVs(*csvDir); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// errWriter forwards writes to an underlying writer and remembers the
// first error, so renderers that do not propagate I/O errors (Render
// writes through fmt and drops them) still fail the run on a bad disk
// instead of leaving a silently truncated artifact.
type errWriter struct {
	w   io.Writer
	err error
}

// Write implements io.Writer.
func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// renderToFile writes res's rendering to path, propagating every write,
// sync and close error.
func renderToFile(res *exp.Result, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	ew := &errWriter{w: f}
	res.Render(ew)
	if ew.err != nil {
		f.Close()
		return fmt.Errorf("bench: writing %s: %w", path, ew.err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("bench: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: closing %s: %w", path, err)
	}
	return nil
}
