package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"productsort"
	"productsort/internal/cert"
	"productsort/internal/graph"
	"productsort/internal/product"
	"productsort/internal/schedule"
	"productsort/internal/serve"
	"productsort/internal/sort2d"
	"productsort/internal/stats"
)

// certEntry is one (network, engine) certification run in
// BENCH_cert.json.
type certEntry struct {
	Network     string  `json:"network"`
	Engine      string  `json:"engine"`
	Family      string  `json:"family"`
	Nodes       int     `json:"nodes"`
	Mode        string  `json:"mode"` // "exhaustive", "sampled", "staged" or "none"
	Certified   bool    `json:"certified"`
	Vectors     uint64  `json:"vectors"`
	Words       uint64  `json:"words"`
	WordOps     uint64  `json:"wordOps"`
	Ops         int     `json:"ops"`
	Comparators int     `json:"comparators"`
	Executed    int     `json:"executed"`
	Dead        int     `json:"deadComparators"`
	ElapsedMs   float64 `json:"elapsedMs"`
	Witness     string  `json:"witness,omitempty"`
	// Stages lists a staged run's stages: the base S_2 sort (k = 2)
	// and each merge k, with the 0-1 vectors and words each replays.
	Stages []schedule.Stage `json:"stages,omitempty"`
	// PassMs is, for a staged entry, the wall time of the program's
	// lazy lowering on first use (the staged pass and the known-order
	// pass that decide the executed stream, and the grouping); ElapsedMs
	// is the staged certificate of the executed stream after it.
	PassMs float64 `json:"passMs,omitempty"`
	// Reason says, for a "none" entry, why a program a default server
	// can pick has no proof in the report.
	Reason string `json:"reason,omitempty"`
}

// certReport is the BENCH_cert.json document.
type certReport struct {
	Generated         string      `json:"generated"`
	Host              hostHeader  `json:"host"`
	MaxExhaustiveKeys int         `json:"maxExhaustiveKeys"`
	SampleVectors     int         `json:"sampleVectors"`
	Entries           []certEntry `json:"entries"`
}

// certTarget is one network to certify with each applicable engine.
type certTarget struct {
	build func() (*productsort.Network, error)
}

// emittedCertTarget is one emitted-family network to certify.
type emittedCertTarget struct {
	family string
	size   int
}

// runCertBench certifies every built-in factor family / engine
// combination plus the emitted network families: exhaustively for
// networks of at most maxKeys keys, by seeded sampling for a set of
// larger representatives. Any non-certified exhaustive run (or sampled
// counterexample) fails the invocation — this is the `make cert` CI
// gate, so an uncertified emitted program can never ship.
func runCertBench(path string, maxKeys, sample, workers int) error {
	if maxKeys < 4 {
		return fmt.Errorf("cert bench: -certmax %d < 4", maxKeys)
	}
	exhaustiveTargets := []certTarget{
		{func() (*productsort.Network, error) { return productsort.Hypercube(2) }},
		{func() (*productsort.Network, error) { return productsort.Hypercube(3) }},
		{func() (*productsort.Network, error) { return productsort.Hypercube(4) }},
		{func() (*productsort.Network, error) { return productsort.Grid(3, 2) }},
		{func() (*productsort.Network, error) { return productsort.Grid(4, 2) }},
		{func() (*productsort.Network, error) { return productsort.Torus(3, 2) }},
		{func() (*productsort.Network, error) { return productsort.Torus(4, 2) }},
		{func() (*productsort.Network, error) { return productsort.MeshConnectedTrees(2, 2) }},
		{func() (*productsort.Network, error) { return productsort.DeBruijnProduct(2, 2, 2) }},
		{func() (*productsort.Network, error) { return productsort.ShuffleExchangeProduct(2, 2) }},
	}
	sampledTargets := []certTarget{
		{func() (*productsort.Network, error) { return productsort.Grid(3, 3) }},
		{func() (*productsort.Network, error) { return productsort.Hypercube(5) }},
		{func() (*productsort.Network, error) { return productsort.PetersenCube(2) }},
		{func() (*productsort.Network, error) { return productsort.MeshConnectedTrees(3, 2) }},
	}
	emittedExhaustive := []emittedCertTarget{
		{productsort.FamilyMultiway, 8},
		{productsort.FamilyMultiway, 16},
		{productsort.FamilyPeriodic, 8},
		{productsort.FamilyPeriodic, 16},
	}
	emittedSampled := []emittedCertTarget{
		{productsort.FamilyMultiway, 64},
		{productsort.FamilyPeriodic, 64},
	}

	report := certReport{
		Generated:         time.Now().UTC().Format(time.RFC3339),
		Host:              hostInfo(),
		MaxExhaustiveKeys: maxKeys,
		SampleVectors:     sample,
	}
	table := stats.NewTable("Certification: bitsliced 0-1 proof per (network, engine)",
		"network", "family", "engine", "keys", "mode", "vectors", "comparators", "executed", "dead", "verdict", "wall")
	failures := 0

	record := func(c *productsort.CompiledNetwork, name, engine string, nodes int) error {
		crt, err := c.Certify(&productsort.CertifyOptions{
			Workers:           workers,
			MaxExhaustiveKeys: maxKeys,
			SampleVectors:     sample,
			Seed:              1,
		})
		if err != nil {
			return err
		}
		mode := "sampled"
		if crt.Exhaustive {
			mode = "exhaustive"
		}
		e := certEntry{
			Network: name, Engine: engine, Family: c.Family(), Nodes: nodes, Mode: mode,
			Certified: crt.Certified, Vectors: crt.Vectors, Words: crt.Words,
			WordOps: crt.WordOps, Ops: crt.Ops, Comparators: crt.Comparators,
			Executed:  crt.Executed,
			Dead:      len(crt.Dead),
			ElapsedMs: float64(crt.Elapsed) / float64(time.Millisecond),
		}
		verdict := "CERTIFIED"
		if !crt.Exhaustive {
			verdict = "pass (sampled)"
		}
		if !crt.Certified {
			failures++
			verdict = "FAILED"
			if crt.Witness != nil {
				e.Witness = fmt.Sprint(crt.Witness)
			}
		}
		report.Entries = append(report.Entries, e)
		table.Add(name, e.Family, engine, nodes, mode, e.Vectors, e.Comparators, e.Executed, e.Dead,
			verdict, fmt.Sprintf("%.1fms", e.ElapsedMs))
		return nil
	}

	run := func(nw *productsort.Network, engine string) error {
		s, err := productsort.NewSorter(productsort.WithEngine(engine))
		if err != nil {
			return err
		}
		c, err := s.Compile(nw)
		if err != nil {
			return err
		}
		return record(c, nw.Name(), engine, nw.Nodes())
	}

	runEmitted := func(tgt emittedCertTarget) error {
		cand, err := serve.FamilyCandidate(tgt.family, tgt.size)
		if err != nil {
			return err
		}
		c, err := productsort.CompileFamily(tgt.family, tgt.size)
		if err != nil {
			return err
		}
		engine, _, _ := strings.Cut(cand.Name, "[") // the catalog's "<engine>[<n>]"
		return record(c, cand.Name, engine, tgt.size)
	}

	for _, tgt := range exhaustiveTargets {
		nw, err := tgt.build()
		if err != nil {
			return err
		}
		if nw.Nodes() > maxKeys {
			continue
		}
		engines := []string{"auto", "shearsort", "snake-oet"}
		if nw.FactorSize() == 2 {
			engines = append(engines, "opt4")
		}
		for _, engine := range engines {
			if err := run(nw, engine); err != nil {
				return fmt.Errorf("cert bench: %s/%s: %w", nw.Name(), engine, err)
			}
		}
	}
	for _, tgt := range sampledTargets {
		nw, err := tgt.build()
		if err != nil {
			return err
		}
		if err := run(nw, "auto"); err != nil {
			return fmt.Errorf("cert bench: %s/auto: %w", nw.Name(), err)
		}
	}
	for _, tgt := range emittedExhaustive {
		if tgt.size > maxKeys {
			continue
		}
		if err := runEmitted(tgt); err != nil {
			return fmt.Errorf("cert bench: %s[%d]: %w", tgt.family, tgt.size, err)
		}
	}
	for _, tgt := range emittedSampled {
		if err := runEmitted(tgt); err != nil {
			return fmt.Errorf("cert bench: %s[%d]: %w", tgt.family, tgt.size, err)
		}
	}

	notStaged := map[string]string{} // serving network -> why the staged pass cannot cover it
	for _, net := range servingNetworks() {
		prog, err := schedule.CompileUncached(net, nil) // lowered here, not by an earlier entry
		if err != nil {
			return err
		}
		if _, err := prog.Stages(); errors.Is(err, schedule.ErrNotStaged) {
			notStaged[net.Name()] = err.Error()
			continue
		}
		t0 := time.Now()
		prog.Executed()
		pass := time.Since(t0)
		res, err := cert.Staged(prog, cert.Options{Workers: workers})
		if err != nil {
			return fmt.Errorf("cert bench: %s staged: %w", net.Name(), err)
		}
		e := certEntry{
			Network: net.Name(), Engine: prog.Engine(), Family: productsort.FamilyProduct, Nodes: net.Nodes(),
			Mode: "staged", Certified: res.Certified, Vectors: res.Vectors, Words: res.Words,
			WordOps: res.WordOps, Ops: res.Ops, Comparators: res.Comparators, Executed: res.Executed,
			Dead: len(res.Dead), ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond), Stages: res.Stages,
			PassMs: float64(pass) / float64(time.Millisecond),
		}
		verdict := "CERTIFIED (staged)"
		if !res.Certified {
			failures++
			verdict = "FAILED"
			e.Witness = fmt.Sprintf("%+v", *res.StageFailure)
		}
		report.Entries = append(report.Entries, e)
		table.Add(e.Network, e.Family, e.Engine, e.Nodes, e.Mode, e.Vectors, e.Comparators, e.Executed, e.Dead,
			verdict, fmt.Sprintf("%.1fms (pass %.1fms)", e.ElapsedMs, e.PassMs))
	}

	// Every program a default server can pick has a proof above or a
	// "none" entry that says why it has none.
	proved := map[string]bool{}
	for _, e := range report.Entries {
		if e.Certified && e.Mode != "sampled" && (e.Family != productsort.FamilyProduct || e.Engine == "auto") {
			proved[e.Network] = true
		}
	}
	plans, err := defaultServerPlans()
	if err != nil {
		return err
	}
	for _, p := range plans {
		if proved[p.Name()] {
			continue
		}
		engine, reason := "auto", notStaged[p.Name()]
		if p.Family != productsort.FamilyProduct {
			engine, _, _ = strings.Cut(p.Name(), "[")
			reason = fmt.Sprintf("emitted: no stage source, and %d keys exceed the exhaustive cap of %d", p.Nodes(), maxKeys)
		}
		e := certEntry{Network: p.Name(), Engine: engine, Family: p.Family, Nodes: p.Nodes(), Mode: "none", Reason: reason}
		report.Entries = append(report.Entries, e)
		table.Add(e.Network, e.Family, e.Engine, e.Nodes, e.Mode, "-", "-", "-", "-", "NO PROOF", reason)
	}

	table.Note("exhaustive: all 2^keys 0-1 vectors replayed bitsliced (64/word) — a sorting proof "+
		"by the 0-1 principle; sampled: %d seeded random vectors (refutation + dead-comparator lint only); "+
		"staged: every 0-1 vector of a PG_2 block, then every sorted 0-1 tuple of each merge — a sorting "+
		"proof by THEORY.md §18, run for every default serving network the staged pass covers; "+
		"none: a program a default server can pick, with no proof above, and why", sample)
	table.Render(os.Stdout)

	if err := writeJSONArtifact(path, report); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d entries)\n", path, len(report.Entries))
	if failures > 0 {
		return fmt.Errorf("cert bench: %d certification failure(s)", failures)
	}
	return nil
}

// defaultServerPlans returns every plan a default 4096-key server can
// pick, product-only or with the multiway and periodic families: the
// plans the planner returns for some request size, in the order of the
// first size each serves, product-only server first.
func defaultServerPlans() ([]*serve.Plan, error) {
	var plans []*serve.Plan
	seen := map[string]bool{}
	for _, families := range [][]string{nil, {productsort.FamilyMultiway, productsort.FamilyPeriodic}} {
		var cands []serve.Candidate
		for _, net := range servingNetworks() {
			cands = append(cands, serve.ProductCandidate(net, sort2d.Auto{}))
		}
		fam, err := serve.FamilyCandidates(families, 4096)
		if err != nil {
			return nil, err
		}
		pl, err := serve.NewPlanner(append(cands, fam...))
		if err != nil {
			return nil, err
		}
		for n := 1; n <= pl.MaxKeys(); n++ {
			p, err := pl.For(n)
			if err != nil {
				return nil, err
			}
			if !seen[p.Name()] {
				seen[p.Name()] = true
				plans = append(plans, p)
			}
		}
	}
	return plans, nil
}

// servingNetworks returns the default serving networks of a 4096-key
// server (productsort.DefaultServingNetworks(4096)) as internal
// networks, so their programs can be certified stage by stage;
// TestServingNetworksMatchDefault keeps the two lists equal.
func servingNetworks() []*product.Network {
	var nets []*product.Network
	for r := 1; r <= 12; r++ {
		nets = append(nets, product.MustNew(graph.K2(), r))
	}
	for r := 2; r <= 6; r++ {
		nets = append(nets, product.MustNew(graph.Path(4), r), product.MustNew(graph.Cycle(4), r))
	}
	return nets
}
