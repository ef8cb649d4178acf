package reputation

import "testing"

// TestWalkRowNormalization checks how a Walk materializes its matrix: each
// source row is divided by its sum, and a row whose sum is not positive —
// zero or negative weights, or a row that drops to zero after a later
// fold — is left empty (dangling) rather than filled densely.
func TestWalkRowNormalization(t *testing.T) {
	src := NewRatings(3, func(c *float64, v float64) { *c += v }, func(c float64) (float64, bool) { return c, true })
	for _, r := range []Report{
		{Rater: 0, Ratee: 1, Value: 1}, {Rater: 0, Ratee: 2, Value: 3},
		{Rater: 1, Ratee: 0, Value: 0}, {Rater: 1, Ratee: 2, Value: 0},
		{Rater: 2, Ratee: 0, Value: -1}, {Rater: 2, Ratee: 1, Value: 0.5},
	} {
		if err := src.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	uniform := UniformPretrust(3)
	w := NewWalk(WalkConfig{Alpha: 0.15, Epsilon: 1e-9, MaxIter: 10}, &src, uniform, uniform)
	w.Refresh()
	a := w.Matrix()
	cols, vals := a.Row(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 || vals[0] != 0.25 || vals[1] != 0.75 {
		t.Fatalf("row 0 = %v %v, want [1 2] [0.25 0.75]", cols, vals)
	}
	if a.Len(1) != 0 || a.Len(2) != 0 {
		t.Fatalf("zero- and negative-sum rows hold %d and %d entries, want dangling", a.Len(1), a.Len(2))
	}
	if err := src.Add(Report{Rater: 0, Ratee: 2, Value: -4}); err != nil {
		t.Fatal(err)
	}
	w.Refresh()
	if a.Len(0) != 0 {
		t.Fatalf("row 0 summing to zero after a fold holds %d entries, want dangling", a.Len(0))
	}
}
