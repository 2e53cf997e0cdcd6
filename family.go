// Alternative network families at the root API: compile n-sorter
// multiway and periodic merging networks into the same CompiledNetwork
// surface the paper's product construction uses — one Sort/SortBatch/
// Certify stack, three constructions behind it. See DESIGN.md S32 for
// the emitter boundary and THEORY.md §16 for why the emitted networks
// sort.

package productsort

import (
	"errors"
	"fmt"
	"math/bits"

	"productsort/internal/emit"
	"productsort/internal/emit/multiway"
	"productsort/internal/schedule"
	"productsort/internal/serve"
)

// Network family names accepted by CompileFamily and
// ServerConfig.Families.
const (
	// FamilyProduct is the paper's generalized product-network
	// construction — the default family of Compile.
	FamilyProduct = emit.FamilyProduct
	// FamilyMultiway is the enhanced multiway sorting network built from
	// n-sorter primitives (arXiv 1407.0961).
	FamilyMultiway = emit.FamilyMultiway
	// FamilyPeriodic is the periodic balanced merging network
	// (arXiv 1409.1749 / Dowd-Perl-Rudolph-Saks).
	FamilyPeriodic = emit.FamilyPeriodic
)

// ErrUnsupportedFamily rejects operations that are specific to the
// product construction (fault-plan geometry, randomized pairwise
// engines over product edges) when called on an emitted-family network.
var ErrUnsupportedFamily = errors.New("productsort: operation requires a product-family network")

// MultiwaySorterWidth is the n-sorter width CompileFamily uses for
// FamilyMultiway; see CompileMultiwayN to choose another.
const MultiwaySorterWidth = multiway.DefaultSorter

// Family returns the construction family behind the compiled network:
// FamilyProduct for Compile, the emitter's family for CompileFamily/
// CompileMultiwayN.
func (c *CompiledNetwork) Family() string {
	if c.family == "" {
		return FamilyProduct
	}
	return c.family
}

// CompileFamily compiles a sorting network of the named family over
// size keys, returning the same CompiledNetwork every backend, batch
// replay and certifier consumes. FamilyProduct selects the hypercube of
// the matching dimension; the emitted families build their programs
// directly, through the serving layer's family catalog, so a served
// network "<engine>[<size>]" is CompileFamily(family, size). All three
// require size to be a power of two (the emitters' recursions
// interleave halves exactly; the product dispatch needs a hypercube
// dimension).
func CompileFamily(family string, size int) (*CompiledNetwork, error) {
	switch family {
	case FamilyProduct:
		if !emit.PowerOfTwo(size) || size < 2 {
			return nil, fmt.Errorf("productsort: family %q needs a power-of-two size >= 2, got %d", family, size)
		}
		nw, err := Hypercube(bits.Len(uint(size)) - 1)
		if err != nil {
			return nil, err
		}
		return Compile(nw)
	case FamilyMultiway, FamilyPeriodic:
		cand, err := serve.FamilyCandidate(family, size)
		if err != nil {
			return nil, err
		}
		prog, err := cand.Build()
		if err != nil {
			return nil, err
		}
		return emittedNetwork(prog, family), nil
	}
	return nil, fmt.Errorf("productsort: unknown network family %q", family)
}

// CompileMultiwayN compiles the n-sorter multiway network over size
// keys using sorter-wide primitives; both must be powers of two.
func CompileMultiwayN(size, sorter int) (*CompiledNetwork, error) {
	prog, err := multiway.EmitN(size, sorter)
	if err != nil {
		return nil, err
	}
	return emittedNetwork(prog, FamilyMultiway), nil
}

// emittedNetwork wraps an emitted program as a CompiledNetwork over its
// 1-D line host (node id == snake position, so Sort's snake-order
// contract is the identity layout).
func emittedNetwork(prog *schedule.Program, family string) *CompiledNetwork {
	return &CompiledNetwork{nw: &Network{net: prog.Net()}, prog: prog, family: family}
}
