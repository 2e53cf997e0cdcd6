package productsort

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"productsort/internal/extsort"
)

// TestSortStreamMillionKeysOracle is the tier's acceptance bar: one
// million keys through certified 1024-node-network runs and the tree
// of 2-way merge kernels, verified against sort.Slice key for key. CI's
// extsort job runs it under -race.
func TestSortStreamMillionKeysOracle(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	nw, err := Hypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(rng.Int63() - 1<<62)
	}
	got, stats, err := c.SortStreamKeys(context.Background(), keys, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Key(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("%d keys out, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], want[i])
		}
	}
	if stats.Keys != int64(n) || stats.Runs != int64((n+stats.RunSize-1)/stats.RunSize) {
		t.Fatalf("stats off: %+v for n=%d", stats, n)
	}
	t.Logf("n=%d runs=%d runSize=%d passes=%d maxFanIn=%d spilledBytes=%d",
		n, stats.Runs, stats.RunSize, stats.MergePasses, stats.MaxFanIn, stats.SpilledBytes)
}

// TestSortStreamSpillAtRoot: the public API under a memory budget far
// below the input — spilling engaged, output still oracle-exact.
func TestSortStreamSpillAtRoot(t *testing.T) {
	nw, err := Hypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys := make([]Key, 150_000)
	for i := range keys {
		keys[i] = Key(rng.Int63())
	}
	got, stats, err := c.SortStreamKeys(context.Background(), keys, StreamConfig{
		MemoryKeys: 1, // clamped to the merge floor; everything past it spills
		SpillDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpilledRuns == 0 {
		t.Fatalf("no spilling despite the 1-key budget: %+v", stats)
	}
	want := append([]Key(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// resilientRunSorter is the chaos leg's run sorter: every run is padded
// to the network and sorted by SortResilient under an active fault
// plan, so run formation itself must checkpoint, scrub and heal — and
// the stream must still come out sorted. Its ceiling is three quarters
// of the network, so every run is ragged: padding and faults together.
type resilientRunSorter struct {
	c    *CompiledNetwork
	cfg  FaultConfig
	runs int
}

func (rs *resilientRunSorter) MaxRun() int { return rs.c.Network().Nodes() * 3 / 4 }

func (rs *resilientRunSorter) SortRuns(ctx context.Context, runs [][]Key) error {
	nodes := rs.c.Network().Nodes()
	for _, run := range runs {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Pad the ragged tail with sentinels exactly as the batch
		// replay does (THEORY.md §12), vary the fault seed per run so
		// every run sees fresh chaos, and slice the real prefix back.
		padded := make([]Key, nodes)
		copy(padded, run)
		for i := len(run); i < nodes; i++ {
			padded[i] = Key(1<<63 - 1)
		}
		cfg := rs.cfg
		cfg.Seed += int64(rs.runs)
		rs.runs++
		res, err := rs.c.SortResilient(padded, cfg)
		if err != nil {
			return err
		}
		copy(run, res.Keys[:len(run)])
	}
	return nil
}

// TestSortStreamChaosRunFormation: the chaos leg. Run formation runs
// under an aggressive deterministic fault plan (drops, stalls,
// corruption) through the self-healing replay; the run check stands
// guard between the healed runs and the merge, and the merged stream
// must match the oracle exactly.
func TestSortStreamChaosRunFormation(t *testing.T) {
	nw, err := Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	sorter := &resilientRunSorter{
		c: c,
		cfg: FaultConfig{
			Seed:        42,
			DropRate:    0.2,
			StallRate:   0.1,
			CorruptRate: 0.05,
		},
	}
	rng := rand.New(rand.NewSource(9))
	keys := make([]Key, 4_000)
	for i := range keys {
		keys[i] = Key(rng.Int63n(1 << 32))
	}
	out := extsort.NewSliceWriter()
	stats, err := extsort.Sort(context.Background(), extsort.NewSliceReader(keys), out, sorter, extsort.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Keys()
	want := append([]Key(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("%d keys out, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], want[i])
		}
	}
	if stats.Runs != int64((len(keys)+23)/24) {
		t.Fatalf("runs = %d, want %d", stats.Runs, (len(keys)+23)/24)
	}
}

// TestServerSubmitStreamRoot: the public server lane sorts a stream
// far beyond MaxKeys and reports the extsort instruments through the
// server's registry.
func TestServerSubmitStreamRoot(t *testing.T) {
	srv, err := NewServer(ServerConfig{MaxKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	rng := rand.New(rand.NewSource(4))
	keys := make([]Key, 20_000)
	for i := range keys {
		keys[i] = Key(rng.Int63())
	}
	out := NewKeysWriter()
	stats, err := srv.SubmitStream(context.Background(), NewKeysReader(keys), out, StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Keys != int64(len(keys)) {
		t.Fatalf("stats.Keys = %d, want %d", stats.Keys, len(keys))
	}
	got := out.Keys()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("SubmitStream output unsorted")
	}
	snap := srv.Metrics().Snapshot()
	if snap.Counters["extsort.runs"] == 0 {
		t.Fatal("extsort.runs counter missing from the server registry")
	}
}

// TestServerSubmitStreamRootExtremes: the server lane under a budget
// small enough to spill, over many duplicates of the extreme keys —
// MaxInt64 is also the padding sentinel every ragged run is filled
// with — must equal slices.Sort.
func TestServerSubmitStreamRootExtremes(t *testing.T) {
	srv, err := NewServer(ServerConfig{MaxKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	alphabet := []Key{math.MinInt64, -1, 0, 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(5))
	keys := make([]Key, 100_003) // ragged: the last run pads
	for i := range keys {
		keys[i] = alphabet[rng.Intn(len(alphabet))]
	}
	out := NewKeysWriter()
	stats, err := srv.SubmitStream(context.Background(), NewKeysReader(keys), out,
		StreamConfig{MemoryKeys: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpilledRuns == 0 {
		t.Fatalf("no spilling under the floor budget: %+v", stats)
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if !slices.Equal(out.Keys(), want) {
		t.Fatal("SubmitStream output differs from slices.Sort")
	}
}
