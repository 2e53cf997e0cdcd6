package productsort_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"productsort"
)

func serverKeys(n int, seed int64) []productsort.Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]productsort.Key, n)
	for i := range keys {
		keys[i] = productsort.Key(rng.Intn(4*n+1) - n)
	}
	return keys
}

// TestNewServerFamiliesAllocs bounds the set-up of the families
// server: the planner prices the product candidates and takes each
// emitted candidate's node count as given, so it builds no host network
// for the 22 emitted candidates (when it built a path host for each, a
// set-up made 50,602 allocations).
func TestNewServerFamiliesAllocs(t *testing.T) {
	cfg := productsort.ServerConfig{Families: []string{productsort.FamilyMultiway, productsort.FamilyPeriodic}}
	allocs := testing.AllocsPerRun(3, func() {
		s, err := productsort.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Fatalf("NewServer with both families and Close make %.0f allocations, want at most 2,000", allocs)
	}
}

// TestServerSortsArbitrarySizes: the default server sorts every size up
// to a few hundred keys, agreeing with the reference sort.
func TestServerSortsArbitrarySizes(t *testing.T) {
	s, err := productsort.NewServer(productsort.ServerConfig{
		MaxKeys: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	for _, n := range []int{1, 2, 3, 5, 16, 17, 100, 256} {
		in := serverKeys(n, int64(n))
		got, err := s.SortKeys(context.Background(), in)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := append([]productsort.Key(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: got %v, want %v", n, got, want)
			}
		}
	}
}

// TestServerDefaults: the zero config covers 4096 keys and rejects
// beyond that with the typed error.
func TestServerDefaults(t *testing.T) {
	s, err := productsort.NewServer(productsort.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	if got := s.MaxKeys(); got < 4096 {
		t.Fatalf("MaxKeys = %d, want >= 4096", got)
	}
	if _, err := s.Submit(context.Background(), make([]productsort.Key, s.MaxKeys()+1)); !errors.Is(err, productsort.ErrRequestTooLarge) {
		t.Fatalf("oversize submit = %v, want ErrRequestTooLarge", err)
	}
	if _, err := s.Submit(context.Background(), nil); !errors.Is(err, productsort.ErrEmptyRequest) {
		t.Fatalf("empty submit = %v, want ErrEmptyRequest", err)
	}
}

// TestServerReplyFields: the asynchronous path carries plan and batch
// accounting on every reply.
func TestServerReplyFields(t *testing.T) {
	s, err := productsort.NewServer(productsort.ServerConfig{
		MaxKeys: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	in := serverKeys(10, 1)
	ch, err := s.Submit(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	var rep productsort.SortedReply
	select {
	case rep = <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("no reply")
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if len(rep.Keys) != len(in) {
		t.Fatalf("reply has %d keys, want %d", len(rep.Keys), len(in))
	}
	if rep.Network == "" || rep.Rounds <= 0 || rep.BatchSize < 1 || rep.Wait <= 0 {
		t.Fatalf("reply accounting incomplete: %+v", rep)
	}
	// Mutating the input after Submit must not corrupt the request.
	in[0] = 999
}

// TestServerMetricsSnapshot: the shared registry surfaces serving
// instruments after traffic.
func TestServerMetricsSnapshot(t *testing.T) {
	m := productsort.NewMetrics()
	s, err := productsort.NewServer(productsort.ServerConfig{
		MaxKeys: 64,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.SortKeys(context.Background(), serverKeys(8, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Metrics() != m {
		t.Fatal("Metrics() does not return the configured registry")
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counters["serve.submitted"]; got != 4 {
		t.Fatalf("serve.submitted = %d, want 4", got)
	}
	if got := snap.Counters["serve.bucket.K2^3.flushes"]; got < 1 {
		t.Fatalf("serve.bucket.K2^3.flushes = %d, want >= 1", got)
	}
	if _, err := s.SortKeys(context.Background(), serverKeys(8, 9)); !errors.Is(err, productsort.ErrServerClosed) {
		t.Fatalf("post-close sort = %v, want ErrServerClosed", err)
	}
}

// TestServerBucketsPerReachablePlan: the default server, with or
// without the emitted families, builds one size bucket (one set of
// serve.bucket.<network>.* instruments) per network its planner can
// pick — 12 over 1..4096 keys either way, not one per candidate.
func TestServerBucketsPerReachablePlan(t *testing.T) {
	for _, fams := range [][]string{nil, {productsort.FamilyMultiway, productsort.FamilyPeriodic}} {
		s, err := productsort.NewServer(productsort.ServerConfig{Families: fams})
		if err != nil {
			t.Fatal(err)
		}
		buckets := 0
		for name := range s.Metrics().Snapshot().Counters {
			if strings.HasPrefix(name, "serve.bucket.") && strings.HasSuffix(name, ".flushes") {
				buckets++
			}
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if buckets != 12 {
			t.Fatalf("families %v: %d buckets, want 12", fams, buckets)
		}
	}
}

// TestServerRejectsUnknownEngine: engine names resolve through the same
// registry as WithEngine.
func TestServerRejectsUnknownEngine(t *testing.T) {
	if _, err := productsort.NewServer(productsort.ServerConfig{Engine: "no-such-engine"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestServerCustomNetworks: an explicit candidate set replaces the
// default and bounds admissible sizes.
func TestServerCustomNetworks(t *testing.T) {
	cube, err := productsort.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := productsort.NewServer(productsort.ServerConfig{
		Networks: []*productsort.Network{cube},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	if got := s.MaxKeys(); got != 8 {
		t.Fatalf("MaxKeys = %d, want 8", got)
	}
	in := serverKeys(5, 1)
	got, err := s.SortKeys(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !productsort.IsSorted(got) {
		t.Fatalf("unsorted reply %v", got)
	}
	if _, err := s.SortKeys(context.Background(), serverKeys(9, 2)); !errors.Is(err, productsort.ErrRequestTooLarge) {
		t.Fatalf("9 keys on 8-node set = %v, want ErrRequestTooLarge", err)
	}
}

// TestDefaultServingNetworks: the stock set covers [1, maxKeys] and
// holds every hypercube up to the cover plus the side-4 grid and torus
// of every dimension whose node count the largest hypercube covers.
func TestDefaultServingNetworks(t *testing.T) {
	for _, tc := range []struct {
		maxKeys int
		want    []string
	}{
		{2, []string{"K2^1"}},
		{64, []string{"K2^1", "K2^2", "K2^3", "K2^4", "K2^5", "K2^6",
			"path4^2", "cycle4^2", "path4^3", "cycle4^3"}},
		{1000, []string{"K2^1", "K2^2", "K2^3", "K2^4", "K2^5", "K2^6", "K2^7", "K2^8", "K2^9", "K2^10",
			"path4^2", "cycle4^2", "path4^3", "cycle4^3", "path4^4", "cycle4^4", "path4^5", "cycle4^5"}},
	} {
		var got []string
		for _, nw := range productsort.DefaultServingNetworks(tc.maxKeys) {
			got = append(got, nw.Name())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("DefaultServingNetworks(%d) = %v, want %v", tc.maxKeys, got, tc.want)
		}
	}
}
