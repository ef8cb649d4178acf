package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestGeneratorEdgesPinned checks the generators' edge lists (out and in
// adjacency, weights included) at a fixed seed against FNV-64a digests
// captured from the map-backed adjacency that preceded the sorted rows.
// Generators draw from the RNG while consulting HasEdge, so any change in
// adjacency semantics shifts the draws and the digest.
func TestGeneratorEdgesPinned(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *sim.RNG) *Graph
		want  uint64
	}{
		{"BarabasiAlbert", func(rng *sim.RNG) *Graph { return BarabasiAlbert(rng, 600, 3) }, 0x8cc39d7ee5146b13},
		{"WattsStrogatz", func(rng *sim.RNG) *Graph { return WattsStrogatz(rng, 600, 6, 0.2) }, 0x99cd5ee3cd3dd877},
		{"ErdosRenyi", func(rng *sim.RNG) *Graph { return ErdosRenyi(rng, 300, 0.02) }, 0x0de4dd08da1d5bf5},
	}
	for _, c := range cases {
		g := c.build(sim.NewRNG(29))
		h := fnv.New64a()
		word := func(v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		word(uint64(g.NumEdges()))
		for u := 0; u < g.N(); u++ {
			for _, e := range g.Out(u) {
				word(uint64(e.To))
				word(math.Float64bits(e.Weight))
			}
			word(math.MaxUint64)
			for _, e := range g.In(u) {
				word(uint64(e.To))
				word(math.Float64bits(e.Weight))
			}
			word(math.MaxUint64)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: digest %#x, pinned %#x", c.name, got, c.want)
		}
	}
}
