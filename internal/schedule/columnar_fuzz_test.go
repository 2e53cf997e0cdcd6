package schedule

import (
	"math"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/simnet"
)

// FuzzColumnarEquivalence proves RunBatchColumnar ≡ the scalar
// ExecBackend replay on arbitrary batches: the fuzzer picks a network,
// a mix of item sizes (1..nodes, empty bytes rejected by admission are
// exercised too via the fixed corpus) and a key stream that includes
// sentinels and negatives, then both paths replay the same compiled
// program and must agree byte-for-byte. This is the machine-checked
// form of the THEORY.md §13 commutation argument: the column transform
// only reorders data-independent comparators across independent sets.
//
// Wired into `make fuzz`.
func FuzzColumnarEquivalence(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{16, 1, 9, 3})   // mixed sizes
	f.Add(uint8(1), int64(2), []byte{1, 1, 1})       // all size-1 items
	f.Add(uint8(0), int64(3), []byte{0xFF, 0xFF})    // all-sentinel items
	f.Add(uint8(2), int64(4), []byte{8, 0x88, 4, 2}) // sentinel mix
	f.Add(uint8(1), int64(5), []byte{12, 7, 12, 12,  // wide batch: vector body
		5, 12, 1, 12, 9, 12, 3, 12})
	f.Fuzz(func(t *testing.T, netPick uint8, seed int64, shape []byte) {
		var net *product.Network
		switch netPick % 3 {
		case 0:
			net = product.MustNew(graph.Path(4), 2) // 16 nodes, Hamiltonian
		case 1:
			net = product.MustNew(graph.K2(), 3) // 8 nodes, hypercube
		default:
			net = product.MustNew(graph.CompleteBinaryTree(2), 2) // 9 nodes, routed
		}
		prog, err := Compile(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes := net.Nodes()
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
					keys[j] = Sentinel
				case x%11 == 0:
					keys[j] = Sentinel
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

		// Oracle: scalar ExecBackend replay, one item at a time.
		want := make([][]simnet.Key, len(batch))
		for i, keys := range batch {
			want[i] = scalarSnake(t, prog, keys)
		}

		// Columnar replay, single tile and tiled across workers.
		for _, workers := range []int{1, 2} {
			got := make([][]simnet.Key, len(batch))
			for i, keys := range batch {
				got[i] = append([]simnet.Key(nil), keys...)
			}
			if err := RunBatchColumnar(prog, got, workers, nil); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				for j := range got[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("workers=%d item %d pos %d: columnar %d, scalar %d",
							workers, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	})
}
