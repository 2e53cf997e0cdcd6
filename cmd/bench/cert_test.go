package main

import (
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
