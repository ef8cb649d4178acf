package powertrust

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/reputation"
	"repro/internal/sim"
)

// denseRows is the frozen pre-kernel row materialization: the dense
// row-normalized feedback matrix with silent peers filled uniformly.
func denseRows(m *Mechanism) [][]float64 {
	n := m.cfg.N
	uniform := 1 / float64(n)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		sum := 0.0
		cols, pairs := m.feedback.Row(i)
		for k, j := range cols {
			row[j] = pairs[k].sum / float64(pairs[k].count)
		}
		for _, v := range row {
			sum += v
		}
		if sum == 0 {
			for j := range row {
				row[j] = uniform
			}
		} else {
			for j := range row {
				row[j] /= sum
			}
		}
		rows[i] = row
	}
	return rows
}

func denseApplyWalk(rows [][]float64, t, next []float64, alpha float64, jump []float64) {
	n := len(t)
	for j := range next {
		next[j] = 0
	}
	for i := 0; i < n; i++ {
		ti := t[i]
		if ti == 0 {
			continue
		}
		for j, c := range rows[i] {
			if c != 0 {
				next[j] += c * ti
			}
		}
	}
	for j := 0; j < n; j++ {
		next[j] = (1-alpha)*next[j] + alpha*jump[j]
	}
}

// denseCompute is the frozen pre-kernel Compute: power-node election plus
// the (look-ahead) walk over fully materialized dense rows.
func denseCompute(m *Mechanism) []float64 {
	n := m.cfg.N
	power := m.electPowerNodes()
	jump := make([]float64, n)
	share := 1 / float64(len(power))
	for _, p := range power {
		jump[p] = share
	}
	rows := denseRows(m)
	t := make([]float64, n)
	for i := range t {
		t[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	mid := make([]float64, n)
	for rounds := 0; rounds < m.cfg.MaxIter; rounds++ {
		if m.cfg.LookAhead {
			denseApplyWalk(rows, t, mid, m.cfg.Alpha, jump)
			denseApplyWalk(rows, mid, next, m.cfg.Alpha, jump)
		} else {
			denseApplyWalk(rows, t, next, m.cfg.Alpha, jump)
		}
		diff := 0.0
		for j := 0; j < n; j++ {
			diff += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		if diff < m.cfg.Epsilon {
			break
		}
	}
	return t
}

func feedRandom(t *testing.T, m *Mechanism, rng *sim.RNG, n, reports int) {
	t.Helper()
	for k := 0; k < reports; k++ {
		i := rng.Intn(n)
		if i%5 == 0 {
			continue // keep some rows silent (dangling)
		}
		j := rng.Intn(n)
		if i == j {
			continue
		}
		if err := m.Submit(reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSparseMatchesDenseReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, plain := range []bool{false, true} {
			cfg := Config{N: 60, M: 4}
			var m *Mechanism
			var err error
			if plain {
				m, err = NewPlain(cfg)
			} else {
				m, err = New(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(seed)
			feedRandom(t, m, rng, cfg.N, 600)
			want := denseCompute(m) // reference election runs on the same pre-Compute scores
			m.Compute()
			got := m.Raw()
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					t.Fatalf("seed %d plain=%v: score[%d] = %v, dense reference %v", seed, plain, j, got[j], want[j])
				}
			}
		}
	}
}

func TestComputeWorkerInvariance(t *testing.T) {
	build := func(workers int) *Mechanism {
		m, err := New(Config{N: 300})
		if err != nil {
			t.Fatal(err)
		}
		m.SetComputeShards(workers)
		feedRandom(t, m, sim.NewRNG(21), 300, 3000)
		return m
	}
	ref := build(1)
	ref.Compute()
	for _, workers := range []int{2, 4, 8} {
		m := build(workers)
		m.Compute()
		for j, v := range m.Raw() {
			if v != ref.Raw()[j] {
				t.Fatalf("workers=%d: score[%d] = %v differs from serial %v (bit-for-bit contract)",
					workers, j, v, ref.Raw()[j])
			}
		}
	}
}

// TestIncrementalMatchesFresh pins the dirty-set rematerialization. The
// power-node election depends on the score history, so the comparison holds
// the compute schedule fixed and varies only the materialization path:
// snapshot-restoring into a fresh mechanism leaves its CSR cold, forcing a
// full rebuild where the original reuses every clean row.
func TestIncrementalMatchesFresh(t *testing.T) {
	const n = 80
	inc, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(13)
	feedRandom(t, inc, rng, n, 500)
	inc.Compute()
	feedRandom(t, inc, rng, n, 300)

	// Same data, cold CSR: restore forces a full rebuild, so the follow-up
	// Compute materializes every row from scratch while inc reuses all but
	// its dirty rows.
	blob, err := inc.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.RestoreMechanismState(blob); err != nil {
		t.Fatal(err)
	}
	inc.Compute()
	cold.Compute()
	for j := range inc.Raw() {
		if inc.Raw()[j] != cold.Raw()[j] {
			t.Fatalf("score[%d]: incremental %v != cold rebuild %v", j, inc.Raw()[j], cold.Raw()[j])
		}
	}
}

// TestSnapshotRoundTripMidDirty snapshots with dirty rows pending and
// checks restore-then-run equals the uninterrupted run bit for bit,
// pending dirty-row set and state blob included.
func TestSnapshotRoundTripMidDirty(t *testing.T) {
	const n = 50
	orig, err := New(Config{N: n, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(31)
	feedRandom(t, orig, rng, n, 400)
	orig.Compute()
	feedRandom(t, orig, rng, n, 100) // pending dirty rows at snapshot time

	blob, err := orig.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{N: n, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreMechanismState(blob); err != nil {
		t.Fatal(err)
	}

	cont := sim.NewRNG(55)
	for k := 0; k < 200; k++ {
		i, j := cont.Intn(n), cont.Intn(n)
		if i == j {
			continue
		}
		r := reputation.Report{Rater: i, Ratee: j, Value: cont.Float64()}
		if err := orig.Submit(r); err != nil {
			t.Fatal(err)
		}
		if err := restored.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if orig.Compute() != restored.Compute() {
		t.Fatal("round counts diverged after restore")
	}
	for j := range orig.Raw() {
		if orig.Raw()[j] != restored.Raw()[j] {
			t.Fatalf("score[%d]: %v != %v after restore-then-run", j, orig.Raw()[j], restored.Raw()[j])
		}
	}
	b1, err := orig.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := restored.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("state blobs diverged after restore-then-run")
	}
}

// TestPowerNodesViewAliasesElection pins the read-only fast path against
// the copying accessor.
func TestPowerNodesViewAliasesElection(t *testing.T) {
	m, err := New(Config{N: 20, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	feedRandom(t, m, sim.NewRNG(2), 20, 100)
	m.Compute()
	view := m.PowerNodesView()
	cp := m.PowerNodes()
	if len(view) != len(cp) {
		t.Fatalf("view has %d nodes, copy has %d", len(view), len(cp))
	}
	for i := range cp {
		if view[i] != cp[i] {
			t.Fatalf("view[%d] = %d, copy %d", i, view[i], cp[i])
		}
	}
	cp[0] = -1 // mutating the copy must not touch the view
	if view[0] == -1 {
		t.Fatal("PowerNodes copy aliases the view")
	}
}

// TestComputeSteadyStateAllocFree pins the reusable-buffer contract for the
// walk itself (the election sorts ids per Compute and is measured out by
// running the walk core's Iterate directly with the matrix held clean).
func TestComputeSteadyStateAllocFree(t *testing.T) {
	m, err := New(Config{N: 400})
	if err != nil {
		t.Fatal(err)
	}
	feedRandom(t, m, sim.NewRNG(3), 400, 4000)
	m.Compute()
	allocs := testing.AllocsPerRun(20, func() { m.Iterate() })
	if allocs != 0 {
		t.Fatalf("steady-state walk allocates %v objects/op, want 0", allocs)
	}
}

// TestRestoreRejectsBadFeedback feeds the restore path feedback lists a map
// could not have produced — out of range, out of order, duplicated, or with
// no ratings — and checks each is refused with the live state untouched.
func TestRestoreRejectsBadFeedback(t *testing.T) {
	const n = 6
	m, err := New(Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	feedRandom(t, m, sim.NewRNG(5), n, 20)
	m.Compute()
	before, err := m.MechanismState()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]feedbackEntry{
		"rater-range":  {{Rater: n, Ratee: 0, Sum: 1, Count: 1}},
		"ratee-range":  {{Rater: 0, Ratee: -1, Sum: 1, Count: 1}},
		"out-of-order": {{Rater: 3, Ratee: 1, Sum: 1, Count: 1}, {Rater: 1, Ratee: 2, Sum: 1, Count: 1}},
		"duplicate":    {{Rater: 1, Ratee: 2, Sum: 1, Count: 1}, {Rater: 1, Ratee: 2, Sum: 0, Count: 1}},
		"no-ratings":   {{Rater: 1, Ratee: 2, Sum: 0, Count: 0}},
	}
	for name, fb := range cases {
		var buf bytes.Buffer
		st := mechanismState{Feedback: fb, Scores: make([]float64, n), Dirty: true}
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		if err := m.RestoreMechanismState(buf.Bytes()); err == nil {
			t.Fatalf("%s: bad feedback accepted", name)
		}
		after, err := m.MechanismState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: rejected restore changed the mechanism state", name)
		}
	}
}
