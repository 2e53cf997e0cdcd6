// The staged pass: certify a program of the paper's recursion stage by
// stage and find every comparator that can swap. A program compiled by
// core.Sorter is a base S_2 sort followed by one merge per dimension
// k = 3..r (Section 3.3), and each merge only ever sees N_k sorted
// slabs. So merge k sorts every input it can receive exactly when it
// sorts every tuple of sorted 0-1 slabs, and a comparator of merge k
// swaps on some input exactly when it swaps on some such tuple
// (THEORY.md §18). The pass replays those tuples bit-parallel, 64 per
// word, in lane blocks of bounded memory; the base stage is replayed
// exhaustively over the N_1·N_2 keys of a PG_2 block. It runs lazily
// inside LoweredComparators, never inside Compile, and internal/cert
// reuses it as its staged certificate.

package schedule

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// maxStageVectors caps the 0-1 vectors one stage may replay: 2^21,
// which covers K₂¹¹'s last merge (1025² tuples) and base stages of up
// to 21 keys. A program with a larger stage gets no stage facts.
const maxStageVectors = 1 << 21

// stageLaneWords is the lane-block width in words per position: 128
// words are 8192 vectors at once, 1 MB of state at 1024 positions.
const stageLaneWords = 128

// ErrNotStaged reports a program the staged pass cannot cover: it is
// not a recursion of merge-marked stages (emitted families, r < 2,
// hand-built op lists), or one of its stages replays more than
// maxStageVectors vectors.
var ErrNotStaged = errors.New("schedule: program has no certifiable stage structure")

// Stage is one stage of a program's recursion.
type Stage struct {
	// K is the stage's top dimension: 2 for the base S_2 sort of the
	// PG_2 blocks, k for the merge along dimension k.
	K int `json:"k"`
	// First and End delimit the stage's comparators in the unpruned
	// flat numbering (the numbering of ExecutedIndex).
	First int `json:"first"`
	End   int `json:"end"`
	// Vectors is the number of 0-1 inputs the stage's certificate
	// replays: every 0-1 vector of a PG_2 block for the base, every
	// tuple of N_k sorted slabs of m keys, (m+1)^N_k, for a merge.
	Vectors uint64 `json:"vectors"`
	// Words is Vectors in 64-lane words.
	Words uint64 `json:"words"`
}

// StageReport is the staged certificate of one program.
type StageReport struct {
	// Stages lists the program's stages in execution order.
	Stages []Stage
	// Certified is true when every stage took every replayed vector to
	// an output sorted in the next stage's layout and no probed
	// comparator swapped: by the chain argument of THEORY.md §18 the
	// program then sorts every input.
	Certified bool
	// Failed is the index in Stages of the first stage that failed, or
	// -1; later stages are not replayed.
	Failed int
	// Reason says why that stage failed.
	Reason string
	// Live[f] reports whether unpruned comparator f swapped on some
	// replayed vector. On a certified report it is the exact live set:
	// comparator f can swap on some input of the program iff Live[f].
	Live []bool
	// LiveDrop is a probed comparator (flat index) seen swapping on a
	// vector on which no earlier probed comparator swapped — so one the
	// unpruned program swaps too — or -1.
	LiveDrop int
}

// Stages splits the program into the stages of the paper's recursion:
// the ops before the first merge marker are the base S_2 stage, and
// every marker opens the merge it names. It fails with ErrNotStaged
// unless the network has r ≥ 2 dimensions, the markers name 3..r in
// order, and every stage replays at most maxStageVectors vectors.
func (p *Program) Stages() ([]Stage, error) {
	net := p.net
	r := net.R()
	if r < 2 {
		return nil, fmt.Errorf("%w: %d dimension(s)", ErrNotStaged, r)
	}
	stages := []Stage{{K: 2}}
	f := 0
	for i := range p.ops {
		switch op := &p.ops[i]; op.Kind {
		case OpCompareExchange, OpRoutedExchange:
			f += len(op.Pairs)
		case OpMergeMarker:
			if want := stages[len(stages)-1].K + 1; op.Dim != want {
				return nil, fmt.Errorf("%w: op %d opens merge %d, want %d", ErrNotStaged, i, op.Dim, want)
			}
			stages[len(stages)-1].End = f
			stages = append(stages, Stage{K: op.Dim, First: f})
		}
	}
	stages[len(stages)-1].End = f
	if last := stages[len(stages)-1].K; last != r {
		return nil, fmt.Errorf("%w: last stage merges dimension %d of %d", ErrNotStaged, last, r)
	}
	for s := range stages {
		st := &stages[s]
		v, ok := stageVectors(p, st.K)
		if !ok {
			return nil, fmt.Errorf("%w: stage %d replays more than %d vectors", ErrNotStaged, st.K, maxStageVectors)
		}
		st.Vectors, st.Words = v, (v+63)/64
	}
	return stages, nil
}

// stageVectors returns the number of vectors stage k replays, and false
// when it exceeds maxStageVectors.
func stageVectors(p *Program, k int) (uint64, bool) {
	net := p.net
	if k == 2 {
		keys := net.Radix(1) * net.Radix(2)
		if keys > 62 || uint64(1)<<keys > maxStageVectors {
			return 0, false
		}
		return uint64(1) << keys, true
	}
	m := uint64(net.BlockSize(dimRange(k - 1)))
	v := uint64(1)
	for u := 0; u < net.Radix(k); u++ {
		if v *= m + 1; v > maxStageVectors {
			return 0, false
		}
	}
	return v, true
}

// dimRange returns [1, 2, …, k].
func dimRange(k int) []int {
	dims := make([]int, k)
	for i := range dims {
		dims[i] = i + 1
	}
	return dims
}

// CertifyStages replays every stage of prog over its 0-1 vectors on up
// to workers goroutines. A comparator f with probe[f] set is probed,
// not applied: the report's LiveDrop names one seen swapping (probe may
// be nil). It fails with ErrNotStaged when the program has no stage
// structure (see Stages).
func CertifyStages(prog *Program, probe []bool, workers int) (*StageReport, error) {
	return certifyStages(prog, prog.unprunedLowered(), probe, workers)
}

// certifyStages is CertifyStages over the already lowered unpruned
// stream all.
func certifyStages(prog *Program, all []Comparator, probe []bool, workers int) (*StageReport, error) {
	stages, err := prog.Stages()
	if err != nil {
		return nil, err
	}
	rep := &StageReport{Stages: stages, Failed: -1, LiveDrop: -1, Live: make([]bool, len(all))}
	for s, st := range stages {
		g := newStageGeometry(prog, st.K)
		if reason := g.local(all[st.First:st.End]); reason != "" {
			rep.Failed, rep.Reason = s, reason
			break
		}
		res := g.replay(all, st, probe, max(workers, 1))
		for f, hit := range res.live {
			rep.Live[st.First+f] = hit
		}
		if res.liveDrop >= 0 {
			rep.Failed, rep.LiveDrop = s, res.liveDrop
			c := all[res.liveDrop]
			rep.Reason = fmt.Sprintf("probed comparator %d (%d,%d) swaps on a vector of stage %d", res.liveDrop, c.Lo, c.Hi, st.K)
			break
		}
		if res.unsorted {
			rep.Failed = s
			rep.Reason = fmt.Sprintf("stage %d leaves a vector unsorted in its output layout", st.K)
			break
		}
	}
	rep.Certified = rep.Failed < 0
	return rep, nil
}

// stageGeometry is where one stage reads its vectors and checks its
// output, in snake positions. Both come from the network's block snake
// order (product.Network.BlockSnakePos): a merge along k reads slab u
// (digit k = u) in the snake order of dimensions 1..k-1, and every
// stage leaves each block of its dimensions 1..k sorted in their snake
// order — which is the next merge's slab layout, and for k = r the
// global snake order.
type stageGeometry struct {
	k      int
	n      int
	slab   []int32 // merge: slab (digit k) of each position
	rank   []int32 // rank of each position in its slab (base: in its PG_2 block)
	m      int     // keys per slab (base: per PG_2 block)
	slabs  int     // slabs per block (base: 1)
	block  []int32 // output block of each position
	order  []int32 // positions in output layout order, block after block
	blockN int     // positions per output block
}

func newStageGeometry(prog *Program, k int) *stageGeometry {
	net := prog.net
	perm := prog.SnakePerm()
	n := len(perm)
	outDims := dimRange(k)
	g := &stageGeometry{k: k, n: n, rank: make([]int32, n), block: make([]int32, n),
		order: make([]int32, n), blockN: net.BlockSize(outDims), slabs: 1}
	inDims := outDims
	if k > 2 {
		inDims = outDims[:k-1]
		g.slab = make([]int32, n)
		g.slabs = net.Radix(k)
	}
	g.m = net.BlockSize(inDims)
	blockIdx := make(map[int]int32)
	for pos, node := range perm {
		g.rank[pos] = int32(net.BlockSnakePos(node, inDims))
		if g.slab != nil {
			g.slab[pos] = int32(net.Digit(node, k))
		}
		base := net.BlockBase(node, outDims)
		b, ok := blockIdx[base]
		if !ok {
			b = int32(len(blockIdx))
			blockIdx[base] = b
		}
		g.block[pos] = b
		g.order[int(b)*g.blockN+net.BlockSnakePos(node, outDims)] = int32(pos)
	}
	return g
}

// local returns why some comparator of the stage leaves its output
// block, or "" when none does: a stage's vectors are replayed block by
// block, so its certificate covers only block-local comparators.
func (g *stageGeometry) local(comps []Comparator) string {
	for _, c := range comps {
		if g.block[c.Lo] != g.block[c.Hi] {
			return fmt.Sprintf("comparator (%d,%d) of stage %d joins two of its blocks", c.Lo, c.Hi, g.k)
		}
	}
	return ""
}

// stageResult is one stage's replay outcome.
type stageResult struct {
	live     []bool // per stage comparator
	liveDrop int    // lowest probed comparator seen swapping, or -1
	unsorted bool
}

// replay runs the stage's comparators over all of its vectors, lane
// block by lane block, the blocks shared out over the workers.
func (g *stageGeometry) replay(all []Comparator, st Stage, probe []bool, workers int) stageResult {
	words := int(st.Words)
	width := min(stageLaneWords, words)
	blocks := (words + width - 1) / width
	workers = min(workers, blocks)
	results := make([]stageResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := stageResult{live: make([]bool, st.End-st.First), liveDrop: -1}
			state := make([]uint64, g.n*width)
			var scratch []uint64
			for lb := w; lb < blocks && !res.unsorted && res.liveDrop < 0; lb += workers {
				w0 := lb * width
				nw := min(width, words-w0)
				scratch = g.load(state, width, w0, nw, st.Vectors, scratch)
				for f := st.First; f < st.End; f++ {
					c := all[f]
					a := state[int(c.Lo)*width : int(c.Lo)*width+nw]
					b := state[int(c.Hi)*width : int(c.Hi)*width+nw]
					if probe != nil && probe[f] {
						if swapBits(a, b) != 0 && (res.liveDrop < 0 || f < res.liveDrop) {
							res.liveDrop = f
						}
						continue
					}
					if exchangeBits(a, b) != 0 {
						res.live[f-st.First] = true
					}
				}
				res.unsorted = g.unsorted(state, width, nw)
			}
			results[w] = res
		}(w)
	}
	wg.Wait()
	out := results[0]
	for _, res := range results[1:] {
		for f, hit := range res.live {
			out.live[f] = out.live[f] || hit
		}
		if res.liveDrop >= 0 && (out.liveDrop < 0 || res.liveDrop < out.liveDrop) {
			out.liveDrop = res.liveDrop
		}
		out.unsorted = out.unsorted || res.unsorted
	}
	return out
}

// LanePatterns[p] is bit p of the lane index, for the 64 lanes of one
// word: the low six bits of the vector index of each lane when a word
// holds 64 consecutive 0-1 vectors. The bitsliced certifier shares it.
var LanePatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// load writes vector words w0 … w0+nw-1 into the lane-block state
// (width words per position). Base stage: vector v sets the position
// of rank i in every PG_2 block to bit i of v. Merge stage: vector t is
// the tuple (z_0, …, z_{N-1}) of its base-(m+1) digits, and the
// position of rank i in slab u holds 1 iff i ≥ z_u — z_u zeros, then
// ones. Lanes past the last vector repeat a valid one. scratch is
// reused between calls.
func (g *stageGeometry) load(state []uint64, width, w0, nw int, vectors uint64, scratch []uint64) []uint64 {
	if g.slab == nil {
		for pos, rk := range g.rank {
			row := state[pos*width : pos*width+nw]
			for i := range row {
				if rk < 6 {
					row[i] = LanePatterns[rk]
				} else {
					row[i] = -(uint64(w0+i) >> (rk - 6) & 1)
				}
			}
		}
		return scratch
	}
	m, slabs := g.m, g.slabs
	// first[u*(m+1)+z]: lanes of one word whose tuple has z_u = z; then,
	// prefix-ORed, tile[(u*m+i)*8+ii]: lanes of word ii of a group of 8
	// whose position i of slab u holds a 1. The tile lets every position
	// take its 8 words as one cache line.
	need := slabs*(m+1) + slabs*m*8
	if cap(scratch) < need {
		scratch = make([]uint64, need)
	}
	first, tile := scratch[:slabs*(m+1)], scratch[slabs*(m+1):need]
	digits := make([]int, slabs)
	for i0 := 0; i0 < nw; i0 += 8 {
		group := min(8, nw-i0)
		for ii := 0; ii < group; ii++ {
			clear(first)
			t := uint64(w0+i0+ii) * 64
			for u, x := 0, t; u < slabs; u++ {
				digits[u] = int(x % uint64(m+1))
				x /= uint64(m + 1)
			}
			for j := 0; j < 64; j++ {
				if t+uint64(j) >= vectors {
					for u := 0; u < slabs; u++ {
						first[u*(m+1)] |= 1 << j // past the end: z_u = 0, all ones
					}
					continue
				}
				for u, z := range digits {
					first[u*(m+1)+z] |= 1 << j
				}
				for u := range digits { // advance the tuple like an odometer
					if digits[u]++; digits[u] <= m {
						break
					}
					digits[u] = 0
				}
			}
			for u := 0; u < slabs; u++ {
				var acc uint64
				for z := 0; z < m; z++ {
					acc |= first[u*(m+1)+z]
					tile[(u*m+z)*8+ii] = acc
				}
			}
		}
		for pos, rk := range g.rank {
			at := (int(g.slab[pos])*m + int(rk)) * 8
			copy(state[pos*width+i0:pos*width+i0+group], tile[at:at+group])
		}
	}
	return scratch
}

// unsorted reports whether some lane leaves some output block unsorted:
// a 1 right before a 0 in the block's snake order.
func (g *stageGeometry) unsorted(state []uint64, width, nw int) bool {
	var bad uint64
	for b := 0; b < len(g.order); b += g.blockN {
		blk := g.order[b : b+g.blockN]
		for j := 1; j < len(blk); j++ {
			bad |= swapBits(state[int(blk[j-1])*width:int(blk[j-1])*width+nw], state[int(blk[j])*width:int(blk[j])*width+nw])
		}
	}
	return bad != 0
}

// exchangeWords applies one comparator to 0-1 lanes, min = AND into a
// and max = OR into b, and returns the lanes in which it swapped.
func exchangeWords(a, b []uint64) (swapped uint64) {
	b = b[:len(a)]
	for i, x := range a {
		y := b[i]
		swapped |= x &^ y
		a[i] = x & y
		b[i] = x | y
	}
	return swapped
}

// swaps returns the lanes in which a comparator (a, b) would swap: a
// holds a 1 and b a 0.
func swaps(a, b []uint64) (lanes uint64) {
	b = b[:len(a)]
	for i, x := range a {
		lanes |= x &^ b[i]
	}
	return lanes
}

// stageDead returns the comparators of the unpruned stream all that the
// staged certificate proves never swap, or nil when the program has no
// stage structure or a stage fails its certificate: then no stage fact
// is used.
func (p *Program) stageDead(all []Comparator) []bool {
	rep, err := certifyStages(p, all, nil, runtime.GOMAXPROCS(0))
	if err != nil || !rep.Certified {
		return nil
	}
	dead := rep.Live // reused: flipped in place
	for f, live := range dead {
		dead[f] = !live
	}
	return dead
}
