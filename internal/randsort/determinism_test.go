package randsort

import (
	"reflect"
	"testing"

	"productsort/internal/obs"
	"productsort/internal/simnet"
)

// TestSplitmix64ReferenceVectors pins the stream construction to the
// published SplitMix64 algorithm (Steele, Lea & Flood): the finalizer
// on the standard single-step inputs and the generator sequence from
// state zero must reproduce the reference outputs bit for bit. Every
// realized comparator sequence, fault decision and sortedness sample
// derives from these streams, so silent drift here would change every
// recorded randomized run.
func TestSplitmix64ReferenceVectors(t *testing.T) {
	for _, tc := range []struct {
		in, want uint64
	}{
		{0, 0xE220A8397B1DCDAF},
		{1, 0x910A2DEC89025CC1},
		{0xDEADBEEF, 0x4ADFB90F68C9EB9B},
	} {
		if got := splitmix64(tc.in); got != tc.want {
			t.Errorf("splitmix64(%#x) = %#016x, want %#016x", tc.in, got, tc.want)
		}
	}
	var s stream // generator from state 0: the canonical published sequence
	for i, want := range []uint64{
		0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
		0xF88BB8A8724C81EC, 0x1B39896A51A8749B,
	} {
		if got := s.next(); got != want {
			t.Fatalf("stream.next()[%d] = %#016x, want %#016x", i, got, want)
		}
	}
}

// TestStreamsDecorrelated: distinct tags and rounds must yield distinct
// streams for the same seed (the decorrelation the tag constants buy),
// while identical (seed, tag, round) triples must collide exactly.
func TestStreamsDecorrelated(t *testing.T) {
	a := newStream(7, tagDraw, 3)
	b := newStream(7, tagDraw, 3)
	if a.next() != b.next() || a.next() != b.next() {
		t.Fatal("identical (seed, tag, round) produced different streams")
	}
	c := newStream(7, tagSample, 3)
	d := newStream(7, tagDraw, 4)
	e := newStream(8, tagDraw, 3)
	first := func(s stream) uint64 { return s.next() }
	base := first(newStream(7, tagDraw, 3))
	for name, s := range map[string]stream{"tag": c, "round": d, "seed": e} {
		if first(s) == base {
			t.Errorf("stream differing only in %s collided with the base stream", name)
		}
	}
}

// TestDrawRoundSeedMatrix drives drawRound directly across a seed
// matrix: engines sharing a seed must realize byte-identical matchings
// round for round, and every distinct seed must diverge somewhere in
// the window.
func TestDrawRoundSeedMatrix(t *testing.T) {
	const rounds = 64
	draw := func(seed int64) [][][2]int {
		e := engineFor(t, "grid4x4", Config{Seed: seed})
		seq := make([][][2]int, rounds)
		for r := 0; r < rounds; r++ {
			rep := new(Report)
			kept := e.drawRound(r, &rep.Faults, rep)
			// Deep-copy: the test must not depend on drawRound's
			// buffer ownership.
			seq[r] = append([][2]int(nil), kept...)
		}
		return seq
	}
	seeds := []int64{0, 1, 42, -7, 1 << 40}
	perSeed := make(map[int64][][][2]int, len(seeds))
	for _, seed := range seeds {
		a, b := draw(seed), draw(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two engines diverged on realized matchings", seed)
		}
		perSeed[seed] = a
	}
	for i, s1 := range seeds {
		for _, s2 := range seeds[i+1:] {
			if reflect.DeepEqual(perSeed[s1], perSeed[s2]) {
				t.Errorf("seeds %d and %d realized identical %d-round matchings", s1, s2, rounds)
			}
		}
	}
}

// phaseLog records every phase a Sort traces, so a full run's realized
// sequence (kind, cost and pair count per round) can be compared across
// runs.
type phaseLog struct{ phases []obs.Phase }

func (l *phaseLog) PhaseBegin(p obs.Phase)   { l.phases = append(l.phases, p) }
func (*phaseLog) PhaseEnd(obs.Phase)         {}
func (*phaseLog) RecoveryEvent(obs.Recovery) {}
func (*phaseLog) MessageStats(obs.Messages)  {}

// TestSortSeedMatrixRealizedSequences is the end-to-end determinism
// guarantee: two full randomized sorts with the same (network, config,
// seed, input) must trace identical realized sequences, identical
// reports, and identical outputs — and a different seed must realize a
// different sequence. Each realized round is traced under its index in
// the realized sequence. The exact pairs per seed are pinned by
// TestDrawRoundSeedMatrix.
func TestSortSeedMatrixRealizedSequences(t *testing.T) {
	for name, net := range testNets(t) {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) ([]obs.Phase, *Report, []simnet.Key) {
				log := &phaseLog{}
				e := engineFor(t, name, Config{Seed: seed, Tracer: log})
				keys := shuffled(net.Nodes(), 99)
				rep, err := e.Sort(keys)
				if err != nil {
					t.Fatal(err)
				}
				return log.phases, rep, keys
			}
			ph1, rep1, out1 := run(5)
			for i, p := range ph1 {
				if p.Index != i {
					t.Fatalf("realized round %d traced as index %d", i, p.Index)
				}
			}
			applied := 0
			for _, p := range ph1 {
				applied += p.Pairs
			}
			if applied != rep1.Applied {
				t.Fatalf("traced phases carry %d pairs, report applied %d", applied, rep1.Applied)
			}
			ph2, rep2, out2 := run(5)
			if !reflect.DeepEqual(ph1, ph2) {
				t.Fatalf("same seed realized different sequences (%d vs %d phases)", len(ph1), len(ph2))
			}
			if !reflect.DeepEqual(rep1, rep2) {
				t.Fatalf("same seed produced different reports:\n%+v\n%+v", rep1, rep2)
			}
			if !reflect.DeepEqual(out1, out2) {
				t.Fatal("same seed produced different outputs")
			}
			ph3, _, _ := run(6)
			if reflect.DeepEqual(ph1, ph3) {
				t.Error("different seeds realized identical sequences")
			}
		})
	}
}

// engineFor builds an engine over the named test network.
func engineFor(t *testing.T, name string, cfg Config) *Engine {
	t.Helper()
	net, ok := testNets(t)[name]
	if !ok {
		t.Fatalf("no test network %q", name)
	}
	e, err := New(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
