package schedule_test

import (
	"math"
	"testing"

	"productsort/internal/emit/multiway"
	"productsort/internal/emit/periodic"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
)

// fuzzNetworks are the programs FuzzColumnarEquivalence picks from:
// product networks (Hamiltonian, hypercube, routed) plus the pruning
// extremes — K2^6 drops 44% of its comparators, and the emitted
// periodic and multiway families run through the same pass.
var fuzzNetworks = []func() (*schedule.Program, error){
	func() (*schedule.Program, error) { return schedule.Compile(product.MustNew(graph.Path(4), 2), nil) },
	func() (*schedule.Program, error) { return schedule.Compile(product.MustNew(graph.K2(), 3), nil) },
	func() (*schedule.Program, error) {
		return schedule.Compile(product.MustNew(graph.CompleteBinaryTree(2), 2), nil)
	},
	func() (*schedule.Program, error) { return schedule.Compile(product.MustNew(graph.K2(), 6), nil) },
	func() (*schedule.Program, error) { return periodic.Emit(16) },
	func() (*schedule.Program, error) { return multiway.Emit(16) },
}

// FuzzColumnarEquivalence proves RunBatchColumnar — the pruned lowered
// stream — ≡ the scalar ExecBackend replay of the unpruned ops on
// arbitrary batches: the fuzzer picks a network, a mix of item sizes
// (1..nodes, empty bytes rejected by admission are exercised too via
// the fixed corpus) and a key stream that includes sentinels,
// MinInt64, duplicates and negatives, then both paths replay the same
// compiled program and must agree byte-for-byte. This is the
// machine-checked form of the THEORY.md §13 commutation argument (the
// column transform only reorders data-independent comparators across
// independent sets) and of §17 (every dropped comparator is the
// identity wherever it is reached).
//
// Wired into `make fuzz`.
func FuzzColumnarEquivalence(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{16, 1, 9, 3})   // mixed sizes
	f.Add(uint8(1), int64(2), []byte{1, 1, 1})       // all size-1 items
	f.Add(uint8(0), int64(3), []byte{0xFF, 0xFF})    // all-sentinel items
	f.Add(uint8(2), int64(4), []byte{8, 0x88, 4, 2}) // sentinel mix
	f.Add(uint8(1), int64(5), []byte{12, 7, 12, 12,  // wide batch: vector body
		5, 12, 1, 12, 9, 12, 3, 12})
	f.Add(uint8(3), int64(6), []byte{63, 40, 63, 0x3F, 17, 63, 63, 2, 63}) // K2^6, ragged
	f.Add(uint8(4), int64(7), []byte{15, 15, 3, 0x8F, 15, 9, 15, 15})      // periodic[16]
	f.Add(uint8(5), int64(8), []byte{15, 15, 11, 15, 0x81, 15, 6, 15})     // multiway4[16]
	f.Add(uint8(3), int64(9), []byte{63})                                  // one full set: the one-set loop
	f.Add(uint8(4), int64(10), []byte{9})                                  // one padded set, 10 of 16 keys
	f.Fuzz(func(t *testing.T, netPick uint8, seed int64, shape []byte) {
		prog, err := fuzzNetworks[int(netPick)%len(fuzzNetworks)]()
		if err != nil {
			t.Fatal(err)
		}
		nodes := prog.Nodes()
		if len(shape) > 64 {
			shape = shape[:64]
		}
		x := uint64(seed)*2862933555777941757 + 3037000493
		batch := make([][]simnet.Key, 0, len(shape))
		for _, b := range shape {
			n := int(b&0x3F)%nodes + 1 // size in 1..nodes
			allSentinel := b&0x80 != 0 // high bit: the padding edge case
			keys := make([]simnet.Key, n)
			for j := range keys {
				x = x*2862933555777941757 + 3037000493
				switch {
				case allSentinel:
					keys[j] = schedule.Sentinel
				case x%11 == 0:
					keys[j] = schedule.Sentinel
				case x%11 == 1:
					keys[j] = simnet.Key(math.MinInt64)
				case x%11 == 2:
					keys[j] = -simnet.Key(x % 997)
				default:
					keys[j] = simnet.Key(x % 997)
				}
			}
			batch = append(batch, keys)
		}
		if len(batch) == 0 {
			return
		}
		checkColumnarAgainstOps(t, prog, batch)
	})
}

// TestColumnarEquivalenceK2_10 is the fuzz comparison at the run
// formation network itself: K2^10 executes 66% of its comparators, and
// full, ragged, constant and extreme-valued sets must still come out
// exactly as the unpruned ops leave them.
func TestColumnarEquivalenceK2_10(t *testing.T) {
	prog, err := schedule.Compile(product.MustNew(graph.K2(), 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(12345)
	next := func() uint64 { x = x*2862933555777941757 + 3037000493; return x >> 11 }
	var batch [][]simnet.Key
	for i, n := range []int{1024, 1024, 1023, 700, 1024, 1, 513, 1024, 1024, 64} {
		keys := make([]simnet.Key, n)
		for j := range keys {
			switch r := next(); {
			case i == 4: // one constant set
				keys[j] = 7
			case r%13 == 0:
				keys[j] = schedule.Sentinel
			case r%13 == 1:
				keys[j] = simnet.Key(math.MinInt64)
			case i%2 == 0: // heavy duplicates
				keys[j] = simnet.Key(r % 5)
			default:
				keys[j] = simnet.Key(r) - 1<<52
			}
		}
		batch = append(batch, keys)
	}
	checkColumnarAgainstOps(t, prog, batch)
	for _, keys := range batch { // one set per batch: the one-set loop, padded sets included
		checkColumnarAgainstOps(t, prog, [][]simnet.Key{keys})
	}
}

// checkColumnarAgainstOps replays batch through RunBatchColumnar (one
// tile, then tiled across two workers) and requires every set to match
// the scalar ExecBackend replay of the program's unpruned ops.
func checkColumnarAgainstOps(t *testing.T, prog *schedule.Program, batch [][]simnet.Key) {
	t.Helper()
	want := make([][]simnet.Key, len(batch))
	for i, keys := range batch {
		want[i] = opsReplay(t, prog, keys)
	}
	for _, workers := range []int{1, 2} {
		got := make([][]simnet.Key, len(batch))
		for i, keys := range batch {
			got[i] = append([]simnet.Key(nil), keys...)
		}
		if err := schedule.RunBatchColumnar(prog, got, workers, nil); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s workers=%d item %d pos %d: columnar %d, ops %d",
						prog.Net().Name(), workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// opsReplay is the unpruned oracle: one snake-order set, padded with
// Sentinel, through ExecBackend's node-space replay of every op.
func opsReplay(t *testing.T, prog *schedule.Program, keys []simnet.Key) []simnet.Key {
	t.Helper()
	perm := prog.SnakePerm()
	byNode := make([]simnet.Key, len(perm))
	for pos := range perm {
		k := schedule.Sentinel
		if pos < len(keys) {
			k = keys[pos]
		}
		byNode[perm[pos]] = k
	}
	if _, err := (schedule.ExecBackend{}).Run(prog, byNode); err != nil {
		t.Fatal(err)
	}
	out := make([]simnet.Key, len(keys))
	for pos := range out {
		out[pos] = byNode[perm[pos]]
	}
	return out
}
