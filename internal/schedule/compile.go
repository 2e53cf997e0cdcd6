// Compilation entry points and the process-wide program cache.

package schedule

import (
	"fmt"
	"sync"
	"sync/atomic"

	"productsort/internal/core"
	"productsort/internal/product"
	"productsort/internal/sort2d"
)

// Signature returns the canonical signature of a full-sort program:
// the S_2 engine name plus the network's structural signature (one
// factor size and labeled edge list per dimension; see
// product.Network.Signature). Structurally identical networks share a
// signature regardless of how or where their factor graphs were
// constructed.
func Signature(net *product.Network, engineName string) string {
	return programKey{engineName, net.Signature()}.signature()
}

// programKey is the program cache's key: the Signature's two parts,
// kept apart so a warm Compile looks a program up without building the
// joined string.
type programKey struct {
	engine, net string
}

// signature joins the key into the program's Signature.
func (k programKey) signature() string { return "sort|" + k.engine + k.net }

// cacheEntry is a once-guarded cache slot: concurrent compilations of
// the same signature wait for a single build.
type cacheEntry struct {
	once sync.Once
	prog *Program
	err  error
}

var (
	cache        sync.Map // programKey -> *cacheEntry
	statHits     atomic.Int64
	statMisses   atomic.Int64
	statCompiles atomic.Int64
)

// CacheStats reports the cumulative behaviour of the program cache.
type CacheStats struct {
	// Hits counts Compile calls answered by an existing cache entry.
	Hits int64
	// Misses counts Compile calls that created a new cache entry.
	Misses int64
	// Compiles counts actual schedule constructions performed — the
	// number every warm-path guarantee is stated in terms of: repeated
	// sorts on one topology leave it unchanged.
	Compiles int64
}

// Stats returns a snapshot of the cache counters.
func Stats() CacheStats {
	return CacheStats{
		Hits:     statHits.Load(),
		Misses:   statMisses.Load(),
		Compiles: statCompiles.Load(),
	}
}

// ResetCache drops every cached program and zeroes the counters (used
// by tests and cold-start benchmarks).
func ResetCache() {
	cache.Range(func(k, _ any) bool {
		cache.Delete(k)
		return true
	})
	statHits.Store(0)
	statMisses.Store(0)
	statCompiles.Store(0)
}

// Compile returns the full-sort phase program for net with the given
// S_2 engine (nil selects sort2d.Auto), building it at most once per
// canonical network signature for the life of the process. The call is
// concurrency-safe; concurrent compilations of the same topology
// coalesce into a single build.
func Compile(net *product.Network, engine sort2d.Engine) (*Program, error) {
	if engine == nil {
		engine = sort2d.Auto{}
	}
	return compile(programKey{engine.Name(), net.Signature()}, net, engine)
}

// CompileUncached builds the full-sort program for net without
// consulting or populating the process-wide cache. It exists for
// callers that own their programs — e.g. each serving bucket — so a
// program's memory goes with its owner instead of staying pinned here
// for the life of the process.
func CompileUncached(net *product.Network, engine sort2d.Engine) (*Program, error) {
	if engine == nil {
		engine = sort2d.Auto{}
	}
	return build(Signature(net, engine.Name()), net, engine)
}

// compile resolves key through the cache, building the program on a
// miss.
func compile(key programKey, net *product.Network, engine sort2d.Engine) (*Program, error) {
	v, loaded := cache.Load(key)
	if !loaded {
		v, loaded = cache.LoadOrStore(key, &cacheEntry{})
	}
	if loaded {
		statHits.Add(1)
	} else {
		statMisses.Add(1)
	}
	entry := v.(*cacheEntry)
	entry.once.Do(func() {
		entry.prog, entry.err = build(key.signature(), net, engine)
	})
	return entry.prog, entry.err
}

// build performs one schedule construction, converting the algorithm's
// validation panics (e.g. the heterogeneous radix condition) to errors.
func build(sig string, net *product.Network, engine sort2d.Engine) (prog *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("schedule: compile %s: %v", net.Name(), r)
		}
	}()
	statCompiles.Add(1)
	b := NewBuilder(net)
	core.New(engine).Sort(b)
	prog = b.Program(engine.Name(), sig)
	// Freshly built programs are validated once, here, so every cached
	// program satisfies the structural invariants (in-range,
	// node-disjoint pairs; balanced S2 brackets) that backends and the
	// 0-1 certifier rely on.
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}
