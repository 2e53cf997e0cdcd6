package schedule

import (
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// BenchmarkScheduleWarmVsCold contrasts the two ends of the compile/
// execute split on one topology: "cold" pays schedule construction plus
// one replay (the pre-refactor per-Sort cost), "warm" replays the
// cached program. cmd/bench -mode schedule records the same contrast as
// wall-clock into BENCH_schedule.json.
func BenchmarkScheduleWarmVsCold(b *testing.B) {
	net := product.MustNew(graph.Path(8), 3)
	keys := randomKeys(net.Nodes(), 1)
	scratch := make([]simnet.Key, len(keys))

	b.Run("cold-compile+sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ResetCache()
			prog, err := Compile(net, nil)
			if err != nil {
				b.Fatal(err)
			}
			copy(scratch, keys)
			if _, err := (ExecBackend{}).Run(prog, scratch); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm-replay", func(b *testing.B) {
		ResetCache()
		prog, err := Compile(net, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(scratch, keys)
			if _, err := (ExecBackend{}).Run(prog, scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile measures pure schedule construction for a mid-size
// network (what the cache saves per warm sort).
func BenchmarkCompile(b *testing.B) {
	net := product.MustNew(graph.Path(8), 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetCache()
		if _, err := Compile(net, nil); err != nil {
			b.Fatal(err)
		}
	}
}
