package integration

import (
	"math/rand"
	"testing"

	"productsort/internal/faults"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/simnet"
	"productsort/internal/spmd"
)

// TestResilientBackendsAgreeUnderFaults is the recovery-layer
// determinism contract: the resilient wrapper realizes the fault plan
// above its inner backend, so the SAME fault seed must yield
// byte-identical recovered keys and identical recovery counters whether
// the surviving exchanges run on the in-place op replay or on the SPMD
// message-passing engine.
func TestResilientBackendsAgreeUnderFaults(t *testing.T) {
	cfgs := []struct {
		g *graph.Graph
		r int
	}{
		{graph.Path(4), 2},
		{graph.Cycle(5), 2},
		{graph.CompleteBinaryTree(3), 2}, // relayed exchanges inside spmd
		{graph.Star(4), 2},
	}
	for _, c := range cfgs {
		net := product.MustNew(c.g, c.r)
		prog, err := schedule.Compile(net, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := faults.Config{Seed: 42, DropRate: 0.04, StallRate: 0.02, CorruptRate: 0.04}
		run := func(inner schedule.Backend) ([]simnet.Key, simnet.Clock) {
			rng := rand.New(rand.NewSource(17))
			keys := make([]simnet.Key, net.Nodes())
			for i := range keys {
				keys[i] = simnet.Key(rng.Intn(1000))
			}
			rb := schedule.ResilientBackend{Inner: inner, Plan: faults.NewPlan(cfg)}
			clk, err := rb.Run(prog, keys)
			if err != nil {
				t.Fatalf("%s: %v (counters %+v)", net.Name(), err, clk.Faults)
			}
			return keys, clk
		}
		kExec, cExec := run(schedule.ExecBackend{})
		kSPMD, cSPMD := run(spmd.Backend{})
		if cExec != cSPMD {
			t.Fatalf("%s: clocks diverged across backends:\nexec %+v\nspmd %+v", net.Name(), cExec, cSPMD)
		}
		if cExec.Faults.Injected == 0 {
			t.Errorf("%s: plan injected nothing", net.Name())
		}
		for i := range kExec {
			if kExec[i] != kSPMD[i] {
				t.Fatalf("%s: recovered keys diverged at node %d: %d vs %d",
					net.Name(), i, kExec[i], kSPMD[i])
			}
		}
	}
}
