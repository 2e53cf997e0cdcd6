package productsort

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"productsort/internal/schedule"
)

// entryAlphabet is the key alphabet of FuzzEveryEntryPoint: the
// extremes (MaxInt64 is also the batch paths' padding sentinel), zero
// and its neighbours, and a few small values, so most inputs repeat keys.
var entryAlphabet = []Key{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64,
	-7, -3, 3, 5, 8, 13, 21, 34}

// entryKey maps one fuzz byte onto the alphabet.
func entryKey(b byte) Key { return entryAlphabet[int(b)%len(entryAlphabet)] }

// entryStreamKeys is the length of the stream input: above the smallest
// memory budget (17·4096 keys), so a SortStreamKeys call with the
// smallest MemoryKeys spills.
const entryStreamKeys = 80_000

// FuzzEveryEntryPoint is the differential harness over every public
// way to sort: each entry point must return exactly slices.Sort of its
// input, and each fixed-size path must also equal the unpruned replay
// (ExecBackend), the in-tree oracle for the executed streams. The
// networks cover the three families: a product network with merge
// stages (K₂⁴), one without (grid 3²), and the emitted multiway and
// periodic networks over 16 keys. A traced Sort, fault-free
// SortResilient and SortRandomized run on the product networks, and a
// quarter of the inputs each go through a spilling SortStreamKeys and
// a server's SubmitStream.
func FuzzEveryEntryPoint(f *testing.F) {
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{7, 7, 7, 0, 0, 0, 3, 3}, uint8(1))
	f.Add([]byte{0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0}, uint8(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(5))
	f.Add([]byte("\x07\x03\x00\x07\x03\x00\x07\x03\x00\x07\x03\x00\x07\x03\x00\x07\x03\x00"), uint8(4))

	var nets []*CompiledNetwork
	for _, build := range []func() (*Network, error){
		func() (*Network, error) { return Hypercube(4) },
		func() (*Network, error) { return Grid(3, 2) },
	} {
		nw, err := build()
		if err != nil {
			f.Fatal(err)
		}
		c, err := Compile(nw)
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, c)
	}
	for _, family := range []string{FamilyMultiway, FamilyPeriodic} {
		c, err := CompileFamily(family, 16)
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, c)
	}
	productSrv, err := NewServer(ServerConfig{MaxKeys: 64})
	if err != nil {
		f.Fatal(err)
	}
	familySrv, err := NewServer(ServerConfig{MaxKeys: 64, Families: []string{FamilyMultiway, FamilyPeriodic}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		productSrv.Close(context.Background())
		familySrv.Close(context.Background())
	})

	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		entryBody(t, nets, productSrv, familySrv, data, sel)
	})
}

// entryBody is one FuzzEveryEntryPoint input: keys drawn from data,
// sorted by both servers, every fixed-size entry point of every
// network, and (on half of the inputs) one of the two streams.
func entryBody(t *testing.T, nets []*CompiledNetwork, productSrv, familySrv *Server, data []byte, sel uint8) {
	keys := make([]Key, max(1, min(len(data), 64)))
	for i := range keys {
		if i < len(data) {
			keys[i] = entryKey(data[i])
		}
	}
	want := sortedCopy(keys)
	ctx := context.Background()
	for name, srv := range map[string]*Server{"product server": productSrv, "families server": familySrv} {
		got, err := srv.SortKeys(ctx, slices.Clone(keys))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s sorted %v to %v, want %v", name, keys, got, want)
		}
	}
	for _, c := range nets {
		checkEntryPoints(t, c, keys, int(sel))
	}

	if sel%4 > 1 { // the streams are the slowest entry points; run one on half of the inputs
		return
	}
	long := make([]Key, entryStreamKeys)
	for i := range long {
		long[i] = entryKey(byte(keys[i%len(keys)]) ^ byte(i>>7))
	}
	if sel%4 == 1 {
		srv := productSrv
		if sel%8 == 5 {
			srv = familySrv
		}
		out := NewKeysWriter()
		if _, err := srv.SubmitStream(ctx, NewKeysReader(long), out, StreamConfig{MemoryKeys: 1}); err != nil {
			t.Fatalf("SubmitStream: %v", err)
		}
		if !slices.Equal(out.Keys(), sortedCopy(long)) {
			t.Fatal("SubmitStream output differs from slices.Sort")
		}
		return
	}
	c := nets[int(sel/4)%len(nets)]
	got, st, err := c.SortStreamKeys(ctx, long, StreamConfig{MemoryKeys: 1})
	if err != nil {
		t.Fatalf("%s stream: %v", c.Network().Name(), err)
	}
	if st.SpilledBytes == 0 {
		t.Fatalf("%s stream of %d keys did not spill", c.Network().Name(), len(long))
	}
	if !slices.Equal(got, sortedCopy(long)) {
		t.Fatalf("%s stream output differs from slices.Sort", c.Network().Name())
	}
}

// sortedCopy is the slices.Sort oracle: a sorted copy of keys.
func sortedCopy(keys []Key) []Key {
	out := slices.Clone(keys)
	slices.Sort(out)
	return out
}

// checkEntryPoints runs keys, cycled to the network's size, through
// every fixed-size entry point of c and compares each output with
// slices.Sort and with the unpruned replay: ExecBackend walking every
// pair of every op, gathered back to snake order.
func checkEntryPoints(t *testing.T, c *CompiledNetwork, keys []Key, sel int) {
	t.Helper()
	n := c.Network().Nodes()
	fit := make([]Key, n)
	for i := range fit {
		fit[i] = keys[(i+sel)%len(keys)]
	}
	want := sortedCopy(fit)
	name := fmt.Sprintf("%s/%s", c.Family(), c.Network().Name())
	order := c.Network().SnakeOrder()
	byNode := make([]Key, n)
	for pos, node := range order {
		byNode[node] = fit[pos]
	}
	if _, err := (schedule.ExecBackend{}).Run(c.prog, byNode); err != nil {
		t.Fatal(err)
	}
	ref := make([]Key, n)
	for pos, node := range order {
		ref[pos] = byNode[node]
	}
	if !slices.Equal(ref, want) {
		t.Fatalf("%s: unpruned replay sorted %v to %v", name, fit, ref)
	}
	agree := func(path string, got []Key) {
		t.Helper()
		if !slices.Equal(got, want) || !slices.Equal(got, ref) {
			t.Fatalf("%s %s sorted %v to %v, want %v", name, path, fit, got, want)
		}
	}
	res, err := c.Sort(slices.Clone(fit))
	if err != nil {
		t.Fatal(err)
	}
	agree("CompiledNetwork.Sort", res.Keys)
	if c.Family() == FamilyProduct {
		if res, err = Sort(c.Network(), slices.Clone(fit)); err != nil {
			t.Fatal(err)
		}
		agree("Sort", res.Keys)
		traced, err := NewSorter(WithTracer(NewMetricsCollector(nil)))
		if err != nil {
			t.Fatal(err)
		}
		if res, err = traced.Sort(c.Network(), slices.Clone(fit)); err != nil {
			t.Fatal(err)
		}
		agree("traced Sort", res.Keys)
		if res, err = c.SortResilient(slices.Clone(fit), FaultConfig{}); err != nil {
			t.Fatal(err)
		}
		agree("SortResilient", res.Keys)
		if res, err = c.SortRandomized(slices.Clone(fit), RandomizedConfig{Seed: int64(sel)}); err != nil {
			t.Fatal(err)
		}
		agree("SortRandomized", res.Keys)
	}
	batch := [][]Key{slices.Clone(fit), slices.Clone(fit), slices.Clone(fit)}
	slices.Reverse(batch[1])
	if err := c.SortBatch(batch, 1+sel%2); err != nil {
		t.Fatal(err)
	}
	for _, got := range batch {
		agree("SortBatch", got)
	}
	sched := &Schedule{nw: c.Network(), prog: c.prog}
	applied := slices.Clone(fit)
	sched.Apply(applied)
	agree("Schedule.Apply", applied)

	bs := 1 + sel%3
	blocks := make([]Key, n*bs)
	for i := range blocks {
		blocks[i] = fit[(i*7+sel)%n]
	}
	wantBlocks := sortedCopy(blocks)
	if _, err := sched.SortBlocks(blocks, bs); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(blocks, wantBlocks) {
		t.Fatalf("%s SortBlocks (block %d) differs from slices.Sort: %v", name, bs, blocks)
	}
}
