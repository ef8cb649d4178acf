package satisfaction

import (
	"testing"

	"repro/internal/sim"
)

// denseConsumer is the reference dense form of Consumer: one preference
// float per provider, folded by the same EMA arithmetic.
type denseConsumer struct {
	prefs   []float64
	memory  float64
	sat     float64
	started bool
	n       int64
}

func (d *denseConsumer) update(provider int, quality float64) {
	d.prefs[provider] = (1-d.memory)*d.prefs[provider] + d.memory*clamp01(quality)
}

func (d *denseConsumer) adequacy(chosen int, candidates []int) float64 {
	best, inSet := 0.0, false
	for _, c := range candidates {
		inSet = inSet || c == chosen
		if d.prefs[c] > best {
			best = d.prefs[c]
		}
	}
	switch {
	case !inSet:
		return 0
	case best == 0:
		return 1
	}
	return d.prefs[chosen] / best
}

func (d *denseConsumer) fold(a float64) float64 {
	if !d.started {
		d.sat, d.started = a, true
	} else {
		d.sat = (1-d.memory)*d.sat + d.memory*a
	}
	d.n++
	return a
}

// TestSparseConsumerMatchesDense pins the representation the scaling layer
// relies on: a sparse uniform-default consumer runs exactly the EMA
// arithmetic of a dense per-provider vector initialized to the same value,
// so every observable — preferences, adequacy, satisfaction — is bit-for-bit
// equal to the dense reference under any interleaving of operations.
func TestSparseConsumerMatchesDense(t *testing.T) {
	const n = 40
	dense := &denseConsumer{prefs: make([]float64, n), memory: 0.2}
	for i := range dense.prefs {
		dense.prefs[i] = 0.5
	}
	sparse, err := NewUniformConsumer(n, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(31)
	for step := 0; step < 500; step++ {
		switch rng.Intn(4) {
		case 0:
			p, q := rng.Intn(n), rng.Float64()
			dense.update(p, q)
			sparse.UpdatePreference(p, q)
		case 1:
			cands := rng.Sample(n, 1+rng.Intn(8))
			chosen := cands[rng.Intn(len(cands))]
			if dense.fold(dense.adequacy(chosen, cands)) != sparse.Observe(chosen, cands) {
				t.Fatalf("step %d: Observe diverged", step)
			}
		case 2:
			cands := rng.Sample(n, 1+rng.Intn(8))
			chosen, q := cands[rng.Intn(len(cands))], rng.Float64()
			if dense.fold(dense.adequacy(chosen, cands)*clamp01(q)) != sparse.ObserveQuality(chosen, cands, q) {
				t.Fatalf("step %d: ObserveQuality diverged", step)
			}
		case 3:
			dense.fold(0)
			sparse.ObserveFailure()
		}
		if dense.sat != sparse.Satisfaction() {
			t.Fatalf("step %d: satisfaction %v != %v", step, dense.sat, sparse.Satisfaction())
		}
	}
	for p := 0; p < n; p++ {
		if dense.prefs[p] != sparse.Preference(p) {
			t.Fatalf("preference[%d]: dense %v != sparse %v", p, dense.prefs[p], sparse.Preference(p))
		}
	}
	if dense.n != sparse.Observations() {
		t.Fatal("observation counts diverged")
	}
}

// TestSparseProviderMatchesDense mirrors the consumer equivalence for the
// provider side (whose willingness is never mutated, so the sparse form
// needs no overrides at all).
func TestSparseProviderMatchesDense(t *testing.T) {
	const n = 30
	will := make([]float64, n)
	for i := range will {
		will[i] = 0.8
	}
	dense, err := NewProvider(will, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewUniformProvider(n, 0.8, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(17)
	for step := 0; step < 300; step++ {
		c := rng.Intn(n)
		if dense.Observe(c) != sparse.Observe(c) {
			t.Fatalf("step %d: Observe diverged", step)
		}
		if dense.Satisfaction() != sparse.Satisfaction() {
			t.Fatalf("step %d: satisfaction diverged", step)
		}
	}
	for c := 0; c < n; c++ {
		if dense.Willingness(c) != sparse.Willingness(c) {
			t.Fatalf("willingness[%d] diverged", c)
		}
	}
}

func TestSparseConstructorValidation(t *testing.T) {
	if _, err := NewUniformProvider(0, 0.8, 0.1); err == nil {
		t.Fatal("n=0 provider accepted")
	}
	if _, err := NewUniformProvider(5, 0.8, 2); err == nil {
		t.Fatal("memory > 1 accepted")
	}
}

// TestSparseConsumerStateRoundTrip checks that a sparse consumer's state
// (default + overrides) survives a State/SetState cycle bit for bit, and
// that a state for another population is rejected instead of silently
// merged.
func TestSparseConsumerStateRoundTrip(t *testing.T) {
	const n = 20
	c, err := NewUniformConsumer(n, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	for k := 0; k < 50; k++ {
		c.UpdatePreference(rng.Intn(n), rng.Float64())
		cands := rng.Sample(n, 3)
		c.Observe(cands[0], cands)
	}
	st := c.State()
	back, err := NewUniformConsumer(n, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.SetState(st); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if back.Preference(p) != c.Preference(p) {
			t.Fatalf("preference[%d] diverged after round trip", p)
		}
	}
	if back.Satisfaction() != c.Satisfaction() || back.Observations() != c.Observations() {
		t.Fatal("satisfaction state diverged after round trip")
	}

	// A population mismatch must error.
	wrong, err := NewUniformConsumer(n+1, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.SetState(st); err == nil {
		t.Fatal("population mismatch accepted")
	}
}
