// Benchmarks that regenerate every reproduced table and figure (one
// Benchmark per experiment E1–E8 of DESIGN.md), plus micro-benchmarks of
// the sorter on each network family. Experiment benches report their
// wall time per full regeneration; sorting benches additionally report
// the simulated parallel rounds as a custom metric.
package productsort

import (
	"context"
	"testing"

	"productsort/internal/exp"
	"productsort/internal/schedule"
	"productsort/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := e.Run()
		if len(res.Tables)+len(res.Figures) == 0 {
			b.Fatal("experiment produced no artifacts")
		}
	}
}

func BenchmarkE1_PaperExample(b *testing.B)        { benchExperiment(b, "e1") }
func BenchmarkE2_DirtyArea(b *testing.B)           { benchExperiment(b, "e2") }
func BenchmarkE3_Theorem1(b *testing.B)            { benchExperiment(b, "e3") }
func BenchmarkE4_UniversalBound(b *testing.B)      { benchExperiment(b, "e4") }
func BenchmarkE5_GridMCTScaling(b *testing.B)      { benchExperiment(b, "e5") }
func BenchmarkE6_HypercubeVsBatcher(b *testing.B)  { benchExperiment(b, "e6") }
func BenchmarkE7_PetersenDeBruijn(b *testing.B)    { benchExperiment(b, "e7") }
func BenchmarkE8_VsColumnsort(b *testing.B)        { benchExperiment(b, "e8") }
func BenchmarkE9_BlockScaling(b *testing.B)        { benchExperiment(b, "e9") }
func BenchmarkE10_LabelingAblation(b *testing.B)   { benchExperiment(b, "e10") }
func BenchmarkE11_Obliviousness(b *testing.B)      { benchExperiment(b, "e11") }
func BenchmarkE12_Heterogeneous(b *testing.B)      { benchExperiment(b, "e12") }
func BenchmarkE13_TorusEmulation(b *testing.B)     { benchExperiment(b, "e13") }
func BenchmarkE14_PermutationRouting(b *testing.B) { benchExperiment(b, "e14") }
func BenchmarkE15_EngineAgreement(b *testing.B)    { benchExperiment(b, "e15") }

func benchSort(b *testing.B, nw *Network) {
	keys := workload.Uniform(nw.Nodes(), 1)
	s, err := NewSorter()
	if err != nil {
		b.Fatal(err)
	}
	// Compile and lower the program outside the timer: the first Sort
	// on a network pays both once (~1.7 s at 16³), and a first b.N = 1
	// round that long would end the benchmark on that one call.
	if _, err := s.Sort(nw, keys); err != nil {
		b.Fatal(err)
	}
	var rounds int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Sort(nw, keys)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "parallel-rounds")
	b.ReportMetric(float64(nw.Nodes()), "processors")
}

func BenchmarkSortGrid4x4x4(b *testing.B)    { benchSort(b, mustNet(Grid(4, 3))) }
func BenchmarkSortGrid8x8x8(b *testing.B)    { benchSort(b, mustNet(Grid(8, 3))) }
func BenchmarkSortGrid16x16(b *testing.B)    { benchSort(b, mustNet(Grid(16, 2))) }
func BenchmarkSortTorus5x5x5(b *testing.B)   { benchSort(b, mustNet(Torus(5, 3))) }
func BenchmarkSortHypercube6(b *testing.B)   { benchSort(b, mustNet(Hypercube(6))) }
func BenchmarkSortHypercube10(b *testing.B)  { benchSort(b, mustNet(Hypercube(10))) }
func BenchmarkSortMCT3x2(b *testing.B)       { benchSort(b, mustNet(MeshConnectedTrees(3, 2))) }
func BenchmarkSortPetersen2(b *testing.B)    { benchSort(b, mustNet(PetersenCube(2))) }
func BenchmarkSortDeBruijn8x8(b *testing.B)  { benchSort(b, mustNet(DeBruijnProduct(2, 3, 2))) }
func BenchmarkSortShuffleEx8x8(b *testing.B) { benchSort(b, mustNet(ShuffleExchangeProduct(3, 2))) }

// Ablation: S_2 engine choice (DESIGN.md calls out shearsort vs the
// simpler snake odd-even transposition).
func benchEngine(b *testing.B, engine string) {
	nw, err := Grid(8, 2)
	if err != nil {
		b.Fatal(err)
	}
	keys := workload.Uniform(nw.Nodes(), 1)
	s, err := NewSorter(WithEngine(engine))
	if err != nil {
		b.Fatal(err)
	}
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Sort(nw, keys)
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "parallel-rounds")
}

func BenchmarkEngineShearsort(b *testing.B) { benchEngine(b, "shearsort") }
func BenchmarkEngineSnakeOET(b *testing.B)  { benchEngine(b, "snake-oet") }

func BenchmarkExtractSchedule(b *testing.B) {
	nw := mustNet(Grid(4, 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractSchedule(nw, "auto"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleReplay4096(b *testing.B) {
	nw := mustNet(Hypercube(12))
	s, err := ExtractSchedule(nw, "auto")
	if err != nil {
		b.Fatal(err)
	}
	keys := workload.Uniform(4096, 1)
	buf := make([]Key, len(keys))
	copy(buf, keys)
	s.Apply(buf) // lowers the program outside the timer
	b.SetBytes(int64(len(keys) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, keys)
		s.Apply(buf)
	}
}

// BenchmarkCompiledSortVsBatch times one uniform key set on K₂¹⁰
// through the untraced CompiledNetwork.Sort and through a one-set
// SortBatch. Both replay the executed stream; Sort also copies the keys
// and scatters them to node order for its Result. The program is
// lowered before the timer starts.
func BenchmarkCompiledSortVsBatch(b *testing.B) {
	c, err := Compile(mustNet(Hypercube(10)))
	if err != nil {
		b.Fatal(err)
	}
	keys := workload.Uniform(c.Network().Nodes(), 1)
	buf := make([]Key, len(keys))
	if _, err := c.Sort(keys); err != nil { // lowers the program
		b.Fatal(err)
	}
	b.Run("Sort", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Sort(keys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SortBatch", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf, keys)
			if err := c.SortBatch([][]Key{buf}, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompileCold times one cold Compile: the program cache is
// emptied before every iteration (outside the timer), so each call runs
// the Section 4 recursion symbolically, prices and checks every phase,
// and validates the program. The lazy lowering is not included.
func BenchmarkCompileCold(b *testing.B) {
	for _, c := range []struct {
		name string
		nw   *Network
	}{
		{"Hypercube10", mustNet(Hypercube(10))},
		{"Grid4x6", mustNet(Grid(4, 6))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				schedule.ResetCache()
				b.StartTimer()
				if _, err := Compile(c.nw); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			schedule.ResetCache()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/compile")
		})
	}
}

func BenchmarkBlockSort64x64(b *testing.B) {
	nw := mustNet(Hypercube(6))
	s, err := ExtractSchedule(nw, "auto")
	if err != nil {
		b.Fatal(err)
	}
	keys := workload.Uniform(64*64, 1)
	buf := make([]Key, len(keys))
	b.SetBytes(int64(len(keys) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, keys)
		if _, err := s.SortBlocks(buf, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// Wall-clock cost of the compare-exchange loop on a big machine (4096
// processors).
func BenchmarkExecutorSequential4096(b *testing.B) { benchSort(b, mustNet(Grid(16, 3))) }

// BenchmarkNewServerFamilies times the set-up of the families server
// (the default product networks plus the multiway and periodic
// candidates up to 4096 keys). "New" builds and closes it. "Warm" also
// sorts one request of every size 1..64 first, so every bucket those
// sizes reach builds its program, as a serving process's first
// requests do.
func BenchmarkNewServerFamilies(b *testing.B) {
	cfg := ServerConfig{Families: []string{FamilyMultiway, FamilyPeriodic}}
	keys := workload.Uniform(64, 1)
	ctx := context.Background()
	for _, warm := range []bool{false, true} {
		name := "New"
		if warm {
			name = "Warm"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				srv, err := NewServer(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for n := 1; warm && n <= len(keys); n++ {
					if _, err := srv.SortKeys(ctx, keys[:n]); err != nil {
						b.Fatal(err)
					}
				}
				if err := srv.Close(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
