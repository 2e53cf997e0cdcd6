// Package exp implements the reproduction experiments E1–E8 listed in
// DESIGN.md: each regenerates one of the paper's artifacts (the worked
// example, Lemma 1, Lemma 3/Theorem 1, the Corollary, and the Section 5
// per-network results) as deterministic tables and figure series.
// cmd/bench prints them; bench_test.go wraps them in testing.B benches;
// EXPERIMENTS.md records their output next to the paper's claims.
package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"productsort/internal/core"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
	"productsort/internal/sort2d"
	"productsort/internal/stats"
)

// Result bundles the artifacts one experiment produces.
type Result struct {
	ID      string
	Title   string
	Tables  []*stats.Table
	Figures []*stats.Figure
	// Raw holds preformatted blocks (e.g. grid renderings of machine
	// states) printed verbatim after the tables.
	Raw []string
}

// WriteCSVs writes each table and figure as a CSV file under dir, named
// <id>_tableN.csv / <id>_figN.csv, and returns the file names written.
func (r *Result) WriteCSVs(dir string) ([]string, error) {
	var names []string
	for i, t := range r.Tables {
		name := fmt.Sprintf("%s_table%d.csv", strings.ToLower(r.ID), i+1)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return names, err
		}
		if err := t.CSV(f); err != nil {
			f.Close()
			return names, err
		}
		if err := f.Close(); err != nil {
			return names, err
		}
		names = append(names, name)
	}
	for i, fg := range r.Figures {
		name := fmt.Sprintf("%s_fig%d.csv", strings.ToLower(r.ID), i+1)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return names, err
		}
		if err := fg.CSV(f); err != nil {
			f.Close()
			return names, err
		}
		if err := f.Close(); err != nil {
			return names, err
		}
		names = append(names, name)
	}
	return names, nil
}

// Render writes every table, figure, and raw block to w.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		t.Render(w)
	}
	for _, f := range r.Figures {
		f.Render(w)
	}
	for _, raw := range r.Raw {
		fmt.Fprintln(w, raw)
	}
}

// Experiment is a runnable reproduction experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Result
}

// All returns the experiments in order E1..E8.
func All() []Experiment {
	return []Experiment{
		{"e1", "Paper worked example (Figs. 12–15)", E1PaperExample},
		{"e2", "Lemma 1: dirty area ≤ N²", E2DirtyArea},
		{"e3", "Lemma 3 + Theorem 1: exact phase and round counts", E3Theorem1},
		{"e4", "Corollary: universal 18(r-1)²N bound", E4UniversalBound},
		{"e5", "§5.1–5.2: grid and MCT scaling in N (fixed r)", E5GridMCTScaling},
		{"e6", "§5.3: hypercube vs Batcher bitonic", E6HypercubeVsBatcher},
		{"e7", "§5.4–5.5: Petersen cube and de Bruijn/SE products", E7PetersenDeBruijn},
		{"e8", "Comparison vs Columnsort and comparator networks", E8VsColumnsort},
		{"e9", "Extension: block sorting, rounds independent of keys/processor", E9BlockScaling},
		{"e10", "Ablation: factor labeling (arbitrary vs natural vs dilation-3)", E10LabelingAblation},
		{"e11", "Obliviousness, schedule-as-network, S2 engine ablation", E11Obliviousness},
		{"e12", "Extension: heterogeneous products (rectangular grids)", E12Heterogeneous},
		{"e13", "Corollary mechanism: schedule invariance across factors", E13ScheduleInvariance},
		{"e14", "Permutation routing substrate: the cost of explicit data movement", E14PermutationRouting},
		{"e15", "Simulator charges vs SPMD message-passing measurements", E15EngineAgreement},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// machineFor loads keys onto a fresh machine over the factor product.
func machineFor(g *graph.Graph, r int, keys []simnet.Key) *simnet.Machine {
	net := product.MustNew(g, r)
	m := simnet.MustNew(net, make([]simnet.Key, net.Nodes()))
	m.LoadSnake(keys)
	return m
}

// programFor builds PG_r over the factor and compiles its full-sort
// program with the default S₂ engine. Name rows after the returned
// network: a cached program may have been compiled for a structurally
// identical network with another name.
func programFor(g *graph.Graph, r int) (*product.Network, *schedule.Program) {
	net := product.MustNew(g, r)
	prog, err := schedule.Compile(net, nil)
	if err != nil {
		panic(err)
	}
	return net, prog
}

// sortAndClock runs the multiway-merge sort and returns the clock.
func sortAndClock(g *graph.Graph, r int, keys []simnet.Key, engine sort2d.Engine) simnet.Clock {
	m := machineFor(g, r, keys)
	core.New(engine).Sort(m)
	if !m.IsSortedSnake() {
		panic(fmt.Sprintf("exp: sort failed on %s^%d", g.Name(), r))
	}
	return m.Clock()
}

// prepareSlabs establishes the Merge precondition on m: every
// dimension-r slab sorted in its local snake order, using the sorter's
// own phases (initial S_2 sorts plus merges along dimensions 3..r-1).
func prepareSlabs(s *core.Sorter, m *simnet.Machine, r int) {
	s.Engine.Sort(m, 1, 2, sort2d.AscendingAll)
	for k := 3; k < r; k++ {
		s.Merge(m, k)
	}
}

// sortedCopy returns keys sorted ascending.
func sortedCopy(keys []simnet.Key) []simnet.Key {
	out := append([]simnet.Key(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// seedsFor returns deterministic seeds for multi-trial experiments.
func seedsFor(trials int) []int64 {
	seeds := make([]int64, trials)
	for i := range seeds {
		seeds[i] = int64(1000 + 37*i)
	}
	return seeds
}
