package main

import (
	"slices"
	"testing"

	"productsort"
)

// TestServingNetworksMatchDefault: the staged cert entries cover
// exactly the networks a default 4096-key server plans over.
func TestServingNetworksMatchDefault(t *testing.T) {
	want := productsort.DefaultServingNetworks(4096)
	got := servingNetworks()
	if len(got) != len(want) {
		t.Fatalf("%d serving networks, DefaultServingNetworks(4096) has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name() != want[i].Name() || got[i].Nodes() != want[i].Nodes() {
			t.Errorf("serving network %d is %s (%d keys), want %s (%d)", i, got[i].Name(), got[i].Nodes(), want[i].Name(), want[i].Nodes())
		}
	}
}

// TestDefaultServerPlans: the programs the cert report accounts for
// are the union of both default servers' plan tables (plantable_test.go
// in the root package pins each), product-only server first.
func TestDefaultServerPlans(t *testing.T) {
	plans, err := defaultServerPlans()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range plans {
		got = append(got, p.Name())
	}
	want := []string{
		"K2^1", "K2^2", "K2^3", "cycle4^2", "K2^5", "cycle4^3", "K2^7", "cycle4^4",
		"K2^9", "K2^10", "K2^11", "K2^12",
		"periodic[8]", "periodic[16]", "periodic[32]", "periodic[64]", "periodic[128]",
		"periodic[256]", "periodic[512]", "periodic[1024]", "periodic[2048]", "periodic[4096]",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("default server plans\n%v\nwant\n%v", got, want)
	}
}
