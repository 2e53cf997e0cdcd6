// Command bench regenerates the paper-reproduction tables and figures
// (experiments E1–E15 from DESIGN.md) and prints them to stdout.
//
// Usage:
//
//	bench                  # run all experiments
//	bench -exp e3          # run one experiment
//	bench -list            # list experiments
//	bench -trace t.json    # trace one sort, write a Chrome trace
//	bench -mode schedule   # cold-vs-warm schedule benchmark
//	bench -mode chaos      # resilient sorts under injected faults
//	bench -mode serve      # batching sort service under open-loop load
//	bench -mode cert       # bitsliced 0-1 certification of compiled programs
//	bench -mode extsort    # streaming external sort tier vs slices.Sort
//
// An unknown -mode name fails the run.
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
	expID := flag.String("exp", "", "experiment id (e1..e15); empty runs all")
	list := flag.Bool("list", false, "list experiments and exit")
	outDir := flag.String("out", "", "also write each experiment's output to <dir>/<id>.txt")
	csvDir := flag.String("csv", "", "also write each table/figure as CSV into <dir>")
	mode := flag.String("mode", "exp", "what to run: exp (the experiments), schedule, chaos, serve, cert or extsort; unknown names fail the run")
	schedOut := flag.String("scheduleout", "BENCH_schedule.json", "output path for -mode schedule")
	schedSets := flag.Int("sets", 64, "key sets per topology for -mode schedule")
	schedWorkers := flag.Int("workers", 0, "worker pool size for -mode schedule and -mode cert (0 = GOMAXPROCS)")
	chaosOut := flag.String("chaosout", "BENCH_chaos.json", "output path for -mode chaos")
	chaosSeeds := flag.Int("seeds", 5, "fault seeds per (topology, scenario) cell for -mode chaos")
	chaosBase := flag.Int64("chaosbase", 0, "fault seed base offset for -mode chaos (CI matrix legs use distinct bases)")
	serveOut := flag.String("serveout", "BENCH_serve.json", "output path for -mode serve")
	serveDur := flag.Duration("servedur", 2*time.Second, "measurement time per offered-load level for -mode serve")
	serveLoads := flag.String("loads", "2000,5000,10000,15000,20000,30000", "comma-separated offered loads (requests/sec) for -mode serve")
	serveSizes := flag.Int("servesizes", 64, "largest request size for -mode serve (Zipf sizes in 1..this)")
	serveSeed := flag.Int64("serveseed", 1, "arrival/size seed for -mode serve")
	certOut := flag.String("certout", "BENCH_cert.json", "output path for -mode cert")
	certMax := flag.Int("certmax", 20, "largest key count certified exhaustively for -mode cert")
	certSample := flag.Int("certsample", 1<<16, "sampled-mode vector count for -mode cert")
	extsortOut := flag.String("extsortout", "BENCH_extsort.json", "output path for -mode extsort")
	extsortSizes := flag.String("extsortsizes", "10000,100000,1000000,10000000", "comma-separated input sizes for -mode extsort: every size once, the second-largest repeated, the RunBatch sweep at the largest")
	extsortSeed := flag.Int64("extsortseed", 1, "workload seed for -mode extsort")
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

	if *tracePath != "" {
		return exitCode(runTrace(netFlags, *tracePath, *metricsPath, *traceSeed, *faultSeed))
	}
	// An unknown name must fail loudly with the valid list — falling
	// through to "run all experiments" would silently run the wrong
	// thing for minutes and leave CI none the wiser.
	switch *mode {
	case "exp":
		// The experiment path below.
	case "schedule":
		return exitCode(runScheduleBench(*schedOut, *schedSets, *schedWorkers))
	case "chaos":
		return exitCode(runChaosBench(*chaosOut, *chaosSeeds, *chaosBase))
	case "serve":
		return exitCode(runServeBench(*serveOut, *serveLoads, *serveDur, *serveSizes, *serveSeed))
	case "cert":
		return exitCode(runCertBench(*certOut, *certMax, *certSample, *schedWorkers))
	case "extsort":
		return exitCode(runExtsortBench(*extsortOut, *extsortSizes, *extsortSeed))
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -mode %q (valid: exp, schedule, chaos, serve, cert, extsort)\n", *mode)
		return 2
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

// exitCode reports a mode's error on stderr and maps it to the exit
// code.
func exitCode(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
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
