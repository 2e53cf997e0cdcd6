// Serving: the multi-tenant batching sort service. A Server accepts
// sort requests of any admissible size, maps each to the cheapest
// covering compiled network (by predicted rounds), pads it with +inf
// sentinels, batches it with size-compatible neighbours that queued
// while every worker was busy, and replays the shared phase program
// once for the whole batch — the agglomeration idiom: many logical
// sorts, one network execution. An idle server sorts each request at
// once. Admission is
// bounded (overload sheds with ErrQueueFull), per-request contexts are
// honored until a request is bound into a flush, and Close drains
// gracefully. The plan set is fixed when the server is built: one size
// bucket per network the planner can pick, each compiling its program
// once on its first flush and bounding its queue with one admission
// counter. See internal/serve for the machinery, DESIGN.md S27 for the
// serving architecture and S30 for the fixed plan set.

package productsort

import (
	"context"
	"errors"

	"productsort/internal/serve"
	"productsort/internal/sort2d"
)

// SortedReply is the terminal answer to one Server.Submit: the sorted
// keys (or the request's error) plus batch and plan accounting.
type SortedReply = serve.Reply

// Typed serving errors; branch with errors.Is.
var (
	// ErrQueueFull is the overload-shedding signal: the request's size
	// bucket is at its admission bound.
	ErrQueueFull = serve.ErrQueueFull
	// ErrServerClosed rejects submissions after Close sealed admission.
	ErrServerClosed = serve.ErrClosed
	// ErrRequestTooLarge rejects requests no serving network covers.
	ErrRequestTooLarge = serve.ErrTooLarge
	// ErrEmptyRequest rejects zero-key requests.
	ErrEmptyRequest = serve.ErrEmpty
	// ErrFlushPanic answers every request of a batch flush that
	// panicked; the server keeps serving (serve.flush.panics counts it).
	ErrFlushPanic = serve.ErrFlushPanic
)

// ServerConfig parametrizes NewServer. The zero value of every field
// selects a sensible default (serving hypercubes, grids and tori up to
// 4096 keys with the auto engine).
type ServerConfig struct {
	// Networks are the candidate serving networks. A request of n keys
	// runs on the candidate with the fewest predicted rounds among
	// those with at least n nodes. Empty selects
	// DefaultServingNetworks(MaxKeys).
	Networks []*Network
	// Families adds emitted-network candidates (FamilyMultiway,
	// FamilyPeriodic) at every power-of-two size up to the serving
	// ceiling, competing with Networks on predicted rounds; the winning
	// family is reported per reply (SortedReply.Family) and counted per
	// flush (serve.planner.family.*). FamilyProduct is accepted and
	// ignored — the product candidates are Networks. Empty adds nothing,
	// preserving the product-only default.
	Families []string
	// Engine names the S_2 engine ("auto" when empty; see WithEngine).
	Engine string
	// MaxKeys sizes the default network set when Networks is empty
	// (default 4096). Ignored when Networks is given.
	MaxKeys int
	// QueueDepth bounds each bucket's admitted-but-unreplied requests
	// (default 1024); submissions beyond it shed with ErrQueueFull.
	QueueDepth int
	// Workers bounds concurrently running batch flushes (default
	// GOMAXPROCS). Requests share a flush only while every worker is
	// busy.
	Workers int
	// Metrics receives the serve.* instruments; nil creates a private
	// registry, reachable via Server.Metrics.
	Metrics *Metrics
}

// DefaultServingNetworks returns the stock candidate set covering 1 to
// at least maxKeys keys: hypercubes of every dimension up to the cover,
// plus side-4 grids and tori in the same range, so the planner has
// meaningfully different round/size trade-offs to choose from.
func DefaultServingNetworks(maxKeys int) []*Network {
	if maxKeys < 2 {
		maxKeys = 2
	}
	var nets []*Network
	for r := 1; ; r++ {
		nw, err := Hypercube(r)
		if err != nil {
			break
		}
		nets = append(nets, nw)
		if nw.Nodes() >= maxKeys {
			break
		}
	}
	cover := nets[len(nets)-1].Nodes() // the largest hypercube
	for r := 2; pow(4, r) <= cover; r++ {
		if g, err := Grid(4, r); err == nil {
			nets = append(nets, g)
		}
		if tr, err := Torus(4, r); err == nil {
			nets = append(nets, tr)
		}
	}
	return nets
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// Server is the request-driven sorting service. Safe for concurrent use
// by any number of submitters.
type Server struct {
	s *serve.Server
}

// NewServer builds a serving instance from cfg.
func NewServer(cfg ServerConfig) (*Server, error) {
	name := cfg.Engine
	if name == "" {
		name = "auto"
	}
	engine, err := sort2d.ByName(name)
	if err != nil {
		return nil, err
	}
	nets := cfg.Networks
	if len(nets) == 0 {
		maxKeys := cfg.MaxKeys
		if maxKeys < 1 {
			maxKeys = 4096
		}
		nets = DefaultServingNetworks(maxKeys)
	}
	cands := make([]serve.Candidate, len(nets))
	maxNodes := 0
	for i, nw := range nets {
		if nw == nil {
			return nil, errors.New("productsort: nil serving network")
		}
		cands[i] = serve.ProductCandidate(nw.net, engine)
		if nw.Nodes() > maxNodes {
			maxNodes = nw.Nodes()
		}
	}
	fam, err := serve.FamilyCandidates(cfg.Families, maxNodes)
	if err != nil {
		return nil, err
	}
	planner, err := serve.NewPlanner(append(cands, fam...))
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{
		Planner:    planner,
		QueueDepth: cfg.QueueDepth,
		Workers:    cfg.Workers,
		Metrics:    cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

// MaxKeys returns the largest request size the server admits (the node
// count of its biggest serving network).
func (s *Server) MaxKeys() int { return s.s.MaxKeys() }

// Submit admits keys for sorting and returns the channel the single
// SortedReply will arrive on. The slice is copied, never retained or
// mutated. Admission fails fast with a typed error (ErrEmptyRequest,
// ErrRequestTooLarge, ErrServerClosed, ErrQueueFull) or the context's
// error if ctx is already done. The context is honored until the
// request is bound into a batch flush; after that the sort completes
// and the reply is delivered regardless, so one caller's cancellation
// never poisons its batchmates.
func (s *Server) Submit(ctx context.Context, keys []Key) (<-chan SortedReply, error) {
	return s.s.Submit(ctx, keys)
}

// SortKeys is the synchronous helper: Submit, then wait for the reply
// or the context. The sorted keys come back in a fresh slice.
func (s *Server) SortKeys(ctx context.Context, keys []Key) ([]Key, error) {
	return s.s.SortKeys(ctx, keys)
}

// Close seals admission and drains: every admitted request still
// receives its reply. ctx (nil means Background) bounds the wait; on
// expiry the drain continues in the background and Close returns the
// context's error. Idempotent.
func (s *Server) Close(ctx context.Context) error { return s.s.Close(ctx) }

// Metrics returns the registry the server reports into: admission and
// shed counters, per-family flush counters, and for every size bucket
// its flush and shed counters, occupancy gauge, and latency and
// batch-size histograms (serve.bucket.<network>.*).
func (s *Server) Metrics() *Metrics { return s.s.Metrics() }
