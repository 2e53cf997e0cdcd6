package schedule

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/sort2d"
)

// irHash digests the op stream of a program: every op's kind, cost,
// dimension and (lo, hi) pairs, in order.
func irHash(p *Program) string {
	h := sha256.New()
	var buf []byte
	for i := range p.ops {
		op := &p.ops[i]
		buf = append(buf[:0], byte(op.Kind))
		buf = binary.AppendUvarint(buf, uint64(op.Cost))
		buf = binary.AppendUvarint(buf, uint64(op.Dim))
		buf = binary.AppendUvarint(buf, uint64(len(op.Pairs)))
		for _, pr := range op.Pairs {
			buf = binary.AppendUvarint(buf, uint64(pr[0]))
			buf = binary.AppendUvarint(buf, uint64(pr[1]))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenIR pins the compiled IR of homogeneous, heterogeneous and
// routed networks under every general S_2 engine: any change to how the
// builder emits, prices or classifies a phase moves a hash. The hashes
// were recorded before the single-pass PhaseCost and the block-offset
// pair generators, which must leave every program byte-identical.
func TestGoldenIR(t *testing.T) {
	hetero := func(gs ...*graph.Graph) *product.Network { return product.MustNewHetero(gs) }
	cases := []struct {
		name   string
		net    *product.Network
		engine sort2d.Engine
		want   string
	}{
		{"k2^3/auto", product.MustNew(graph.K2(), 3), sort2d.Auto{}, "1da9b4163267ff18e3430376692525294a3d3102389541b85dcd095019016523"},
		{"k2^3/shearsort", product.MustNew(graph.K2(), 3), sort2d.Shearsort{}, "1da9b4163267ff18e3430376692525294a3d3102389541b85dcd095019016523"},
		{"k2^3/snake-oet", product.MustNew(graph.K2(), 3), sort2d.SnakeOET{}, "4946ead823c9b560e99b4c572aec83fd56a157a85757612ee91a60e42541c183"},
		{"k2^6/auto", product.MustNew(graph.K2(), 6), sort2d.Auto{}, "cf8bf9487dd01ed65df8d31f27fb01377d1b721286826e70e50ea99988f28de8"},
		{"k2^6/snake-oet", product.MustNew(graph.K2(), 6), sort2d.SnakeOET{}, "5ceff63702947b1e5c08b7be86c9fa0e1b5936f2ba8a4055bbfd14d7a1ceb3f2"},
		{"k2^10/auto", product.MustNew(graph.K2(), 10), sort2d.Auto{}, "29f6b2fe67adfba12e04e826f1d474d4b215c888929396f3a8ae76da89082b75"},
		{"path4^3/auto", product.MustNew(graph.Path(4), 3), sort2d.Auto{}, "2ac8f09bf9d9a078957b0ea0c1433dbdb1682795e55e2a5ae91a2aa141e8209b"},
		{"path4^3/snake-oet", product.MustNew(graph.Path(4), 3), sort2d.SnakeOET{}, "2a51ea685f740db9fdf955f9e5544a65124a3016d8b8714c04db6aa0b8587947"},
		{"path3^4/auto", product.MustNew(graph.Path(3), 4), sort2d.Auto{}, "03b3dfa87691e6f9f6cbee04f1c7959ba001224c61994a7fd602af31c7c96f91"},
		{"path3^4/snake-oet", product.MustNew(graph.Path(3), 4), sort2d.SnakeOET{}, "13b1f264611f0caaf29c59174f24de36d12e63267e35a1ef820539a53f93d9a2"},
		{"cycle5^3/auto", product.MustNew(graph.Cycle(5), 3), sort2d.Auto{}, "1d24272521b208a6d3854a81dccb195c386e6cd3c19faf4a5d59a7df88fe3ad5"},
		{"cycle5^3/snake-oet", product.MustNew(graph.Cycle(5), 3), sort2d.SnakeOET{}, "ae463c52f534b4ded4ac52f9b2f18b07d76f45cba474d47d54b1fa22a8b57c2d"},
		{"path8^3/auto", product.MustNew(graph.Path(8), 3), sort2d.Auto{}, "409d360e2a272b0342fa311b4f999762dddd3c1a50ef8fcfa3901ae5c9dc2dc4"},
		{"path8^3/snake-oet", product.MustNew(graph.Path(8), 3), sort2d.SnakeOET{}, "663cc316f69f717c4e529214be6a74633d57461238b719d975714639b57151be"},
		{"petersen^2/auto", product.MustNew(graph.Petersen(), 2), sort2d.Auto{}, "5606e9be03ba0205f8a68635555435f2c6339ac5a957fb334a19e5ac3c14c3d0"},
		{"petersen^2/snake-oet", product.MustNew(graph.Petersen(), 2), sort2d.SnakeOET{}, "4fc54adec69acf1f876c5a9af207a6a96788c02dfbbf8c11a0e87d6dc1d65abf"},
		{"star4^3/auto", product.MustNew(graph.Star(4), 3), sort2d.Auto{}, "4b88fe74a0fad16abae02d09768ead9772650e3d19922a1b9ef55db37cf1fb56"},
		{"cbtree2^3/auto", product.MustNew(graph.CompleteBinaryTree(2), 3), sort2d.Auto{}, "19ca5710e1e04576ca56d1bb29b8aeec792a1b0d84cb61968994685161118bf2"},
		{"cbtree2^3/snake-oet", product.MustNew(graph.CompleteBinaryTree(2), 3), sort2d.SnakeOET{}, "9c89e041fe8cd8700e2f19c8363bafaa782b1064c9949682b0400a07b53f1919"},
		{"k2*cycle4*path3/auto", hetero(graph.Path(3), graph.Cycle(4), graph.K2()), sort2d.Auto{}, "07dca4b199c0c0b913cbf318f786d2ca81ce5ca41c561cdaf74a8cdbc8b36455"},
		{"k2*cycle4*path3/snake-oet", hetero(graph.Path(3), graph.Cycle(4), graph.K2()), sort2d.SnakeOET{}, "41900b71a74cc97a6175fcc33ba3670e52aeac11ab7e47c268fe3abe2dd35aae"},
		{"path2*path3*path4*path2/auto", hetero(graph.Path(2), graph.Path(4), graph.Path(3), graph.Path(2)), sort2d.Auto{}, "6d486f28251473278535e4a532b8380270ce420b95109f2551da6bec1c87e2d3"},
		{"star4*path4/auto", hetero(graph.Path(4), graph.Star(4)), sort2d.Auto{}, "592b1e6fdd41c56b248655ce01b17f505cab4aae48f9825ecbb18ff19158ccfd"},
		{"star4*path4/snake-oet", hetero(graph.Path(4), graph.Star(4)), sort2d.SnakeOET{}, "ecf81c88639ce8193ed1b132257b5e8c4a1a0ede8602e15082cec168ef4e3ac2"},
		{"k2*path3*petersen/shearsort", hetero(graph.Petersen(), graph.Path(3), graph.K2()), sort2d.Shearsort{}, "5f380217237785b9b8194b270e6649b3d269ea5b9d1d987118c1194a77b28635"},
	}
	routed := 0
	for _, c := range cases {
		prog, err := CompileUncached(c.net, c.engine)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := irHash(prog); got != c.want {
			t.Errorf("%s: IR hash %s, want %s", c.name, got, c.want)
		}
		routed += prog.Clock().RoutedPhases
	}
	if routed == 0 {
		t.Error("no case compiles a routed phase")
	}
}

// TestCompileUncachedAllocs bounds the allocations of one cold compile
// of K₂⁶. Pricing and checking a phase allocates nothing, and the pair
// generators add block offsets instead of unranking every pair, so what
// is left is about one pair slice per recorded phase plus the per-call
// tables (637 at the time of writing, against 14,693 when every phase
// built two maps and every pair two label slices).
func TestCompileUncachedAllocs(t *testing.T) {
	net := product.MustNew(graph.K2(), 6)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := CompileUncached(net, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 800 {
		t.Fatalf("cold compile of %s makes %.0f allocations, want at most 800", net.Name(), allocs)
	}
}
