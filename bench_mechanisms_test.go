package repro

import (
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/reputation"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/powertrust"
	"repro/internal/sim"
)

// BenchmarkMechanismCompute measures one steady-state mechanism recompute —
// one fresh report submitted (a whole round's batch on the dirty=round
// rows), then Compute — across population sizes,
// interaction-graph densities and worker counts, for the sparse CSR kernel
// and (at tractable sizes) the frozen dense [][]float64 reference it
// replaced. CI converts the output into BENCH_mechanisms.json; benchjson
// derives the workers=K speedups and the kernel=sparse-vs-dense speedup
// rows, the headline numbers of the sparse-kernel acceptance bar (≥5× over
// dense at 10k users, ≤1% density).
//
// Heavy cases (50k users; dense baselines beyond 1k users) only run with
// BENCH_MECH_HEAVY=1 so the CI benchmark smoke stays fast; the dedicated
// bench-mechanisms job sets it.
func BenchmarkMechanismCompute(b *testing.B) {
	heavy := os.Getenv("BENCH_MECH_HEAVY") != ""
	type scale struct {
		users     int
		densities []float64
	}
	scales := []scale{
		{users: 1000, densities: []float64{0.001, 0.01}},
		{users: 10000, densities: []float64{0.001, 0.01}},
		// Density scales down with n² so the edge count stays bounded.
		{users: 50000, densities: []float64{0.0002, 0.001}},
	}
	// Warm-vs-cold rows: the same incremental (one dirty row) recompute with
	// the power iteration restarted from the previous fixed point vs from
	// pretrust. The gated ns/op and the advisory iters/op metric should both
	// show warm starts paying only for how far the matrix actually moved.
	warmColdReports := mechBenchReports(10000, 0.001)
	for _, mech := range []string{"eigentrust", "powertrust"} {
		for _, start := range []string{"warm", "cold"} {
			name := fmt.Sprintf("mech=%s/users=10000/density=0.001/kernel=sparse/workers=4/start=%s",
				mech, start)
			b.Run(name, func(b *testing.B) {
				benchWarmCold(b, mech, 10000, 4, start == "cold", warmColdReports)
			})
		}
	}
	// Round rows: the traffic an epoch actually sends. A round's report
	// batch dirties most raters' rows before each recompute (about 1.5
	// reports per user per compute on the long-horizon benchmark shape), so
	// these rows price full-width rematerialization plus the iteration,
	// where the one-dirty-row rows above price the iteration alone.
	roundBatch := mechRoundBatch(10000)
	for _, mech := range []string{"eigentrust", "powertrust"} {
		name := fmt.Sprintf("mech=%s/users=10000/density=0.001/kernel=sparse/workers=1/dirty=round", mech)
		b.Run(name, func(b *testing.B) {
			benchRound(b, mech, 10000, warmColdReports, roundBatch)
		})
	}
	for _, sc := range scales {
		if sc.users >= 50000 && !heavy {
			continue
		}
		for _, density := range sc.densities {
			reports := mechBenchReports(sc.users, density)
			for _, mech := range []string{"eigentrust", "powertrust"} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("mech=%s/users=%d/density=%g/kernel=sparse/workers=%d",
						mech, sc.users, density, workers)
					b.Run(name, func(b *testing.B) {
						benchSparse(b, mech, sc.users, workers, reports)
					})
				}
				// The dense baseline materializes n² float64 rows — 20 GB at
				// 50k users — so it is capped at 10k even in heavy mode (and
				// at 1k without it).
				if sc.users > 10000 || (sc.users > 1000 && !heavy) {
					continue
				}
				name := fmt.Sprintf("mech=%s/users=%d/density=%g/kernel=dense/workers=1",
					mech, sc.users, density)
				b.Run(name, func(b *testing.B) {
					benchDense(b, mech, sc.users, reports)
				})
			}
		}
	}
}

// mechBenchReports generates a deterministic report set with ~density·n²
// edges.
func mechBenchReports(n int, density float64) []reputation.Report {
	rng := sim.NewRNG(17)
	edges := int(density * float64(n) * float64(n))
	reports := make([]reputation.Report, 0, edges)
	for k := 0; k < edges; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		reports = append(reports, reputation.Report{
			TxID: uint64(k), Rater: i, Ratee: j, Value: rng.Float64(),
		})
	}
	return reports
}

func benchSparse(b *testing.B, mech string, n, workers int, reports []reputation.Report) {
	var m reputation.Mechanism
	var err error
	switch mech {
	case "eigentrust":
		m, err = eigentrust.New(eigentrust.Config{N: n})
	case "powertrust":
		m, err = powertrust.New(powertrust.Config{N: n})
	}
	if err != nil {
		b.Fatal(err)
	}
	m.(reputation.ComputeSharder).SetComputeShards(workers)
	for _, r := range reports {
		if err := m.Submit(r); err != nil {
			b.Fatal(err)
		}
	}
	m.Compute() // materialize the CSR; the loop measures the incremental step
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Submit(reputation.Report{Rater: n - 1, Ratee: n - 2, Value: 0.9}); err != nil {
			b.Fatal(err)
		}
		m.Compute()
	}
}

// mechRoundBatch generates one round's report batch for n users: 1.5
// reports per user, from a stream independent of the matrix's.
func mechRoundBatch(n int) []reputation.Report {
	rng := sim.NewRNG(23)
	batch := make([]reputation.Report, 0, 3*n/2)
	for len(batch) < cap(batch) {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		batch = append(batch, reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()})
	}
	return batch
}

// benchRound measures one epoch-shaped recompute: a whole round's batch
// folded through SubmitBatch, then Compute.
func benchRound(b *testing.B, mech string, n int, reports, batch []reputation.Report) {
	var m reputation.Mechanism
	var err error
	switch mech {
	case "eigentrust":
		m, err = eigentrust.New(eigentrust.Config{N: n})
	case "powertrust":
		m, err = powertrust.New(powertrust.Config{N: n})
	}
	if err != nil {
		b.Fatal(err)
	}
	bs := m.(reputation.BatchSubmitter)
	if err := bs.SubmitBatch(reports); err != nil {
		b.Fatal(err)
	}
	m.Compute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bs.SubmitBatch(batch); err != nil {
			b.Fatal(err)
		}
		m.Compute()
	}
}

// benchWarmCold measures the steady-state incremental recompute with the
// iteration's starting vector pinned warm (previous fixed point) or cold
// (pretrust / uniform), reporting the mean solver iterations per recompute
// as an advisory metric alongside the gated ns/op.
func benchWarmCold(b *testing.B, mech string, n, workers int, cold bool, reports []reputation.Report) {
	var m reputation.Mechanism
	var err error
	switch mech {
	case "eigentrust":
		m, err = eigentrust.New(eigentrust.Config{N: n, ColdStart: cold})
	case "powertrust":
		m, err = powertrust.New(powertrust.Config{N: n, ColdStart: cold})
	}
	if err != nil {
		b.Fatal(err)
	}
	m.(reputation.ComputeSharder).SetComputeShards(workers)
	for _, r := range reports {
		if err := m.Submit(r); err != nil {
			b.Fatal(err)
		}
	}
	m.Compute() // reach the fixed point; the loop measures small-delta recomputes
	var iters int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Submit(reputation.Report{Rater: n - 1, Ratee: n - 2, Value: 0.9}); err != nil {
			b.Fatal(err)
		}
		iters += m.Compute()
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

func benchDense(b *testing.B, mech string, n int, reports []reputation.Report) {
	switch mech {
	case "eigentrust":
		benchDenseEigenTrust(b, n, reports)
	case "powertrust":
		benchDensePowerTrust(b, n, reports)
	}
}

// benchDenseEigenTrust is the frozen pre-kernel EigenTrust Compute: every
// recompute materializes all n normalized rows as dense []float64 and
// iterates over n² entries.
func benchDenseEigenTrust(b *testing.B, n int, reports []reputation.Report) {
	lt := reputation.NewLocalTrust(n)
	for _, r := range reports {
		if err := lt.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	pretrust := reputation.UniformPretrust(n)
	const alpha, epsilon = 0.15, 1e-6
	const maxIter = 200
	compute := func() {
		rows := make([][]float64, n)
		for i := 0; i < n; i++ {
			rows[i] = lt.NormalizedRow(i, pretrust)
		}
		t := append([]float64(nil), pretrust...)
		next := make([]float64, n)
		for iters := 0; iters < maxIter; iters++ {
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
			diff := 0.0
			for j := 0; j < n; j++ {
				next[j] = (1-alpha)*next[j] + alpha*pretrust[j]
				diff += math.Abs(next[j] - t[j])
			}
			t, next = next, t
			if diff < epsilon {
				break
			}
		}
	}
	compute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lt.Add(reputation.Report{Rater: n - 1, Ratee: n - 2, Value: 0.9}); err != nil {
			b.Fatal(err)
		}
		compute()
	}
}

// benchDensePowerTrust is the frozen pre-kernel PowerTrust Compute: a dense
// row materialization with uniform fill for silent peers, plus the
// look-ahead walk over n² entries per application.
func benchDensePowerTrust(b *testing.B, n int, reports []reputation.Report) {
	type pair struct {
		sum   float64
		count int
	}
	feedback := make([]map[int]*pair, n)
	add := func(r reputation.Report) {
		if feedback[r.Rater] == nil {
			feedback[r.Rater] = make(map[int]*pair)
		}
		p := feedback[r.Rater][r.Ratee]
		if p == nil {
			p = &pair{}
			feedback[r.Rater][r.Ratee] = p
		}
		p.sum += r.Value
		p.count++
	}
	for _, r := range reports {
		add(r)
	}
	m := n / 20
	if m < 1 {
		m = 1
	}
	const alpha, epsilon = 0.15, 1e-6
	const maxIter = 200
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = 1 / float64(n)
	}
	compute := func() {
		// Election (weighted in-degree bootstrap or current scores).
		rank := make([]float64, n)
		uniform := 1 / float64(n)
		bootstrapped := true
		for _, s := range scores {
			if s > uniform*1.01 || s < uniform*0.99 {
				bootstrapped = false
				break
			}
		}
		if bootstrapped {
			for _, row := range feedback {
				for j, p := range row {
					rank[j] += p.sum / float64(p.count)
				}
			}
		} else {
			copy(rank, scores)
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, c int) bool {
			if rank[ids[a]] != rank[ids[c]] {
				return rank[ids[a]] > rank[ids[c]]
			}
			return ids[a] < ids[c]
		})
		jump := make([]float64, n)
		share := 1 / float64(m)
		for _, p := range ids[:m] {
			jump[p] = share
		}
		// Dense rows, uniform fill for silent peers.
		rows := make([][]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, n)
			sum := 0.0
			for j, p := range feedback[i] {
				row[j] = p.sum / float64(p.count)
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
		applyWalk := func(t, next []float64) {
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
		t := make([]float64, n)
		for i := range t {
			t[i] = 1 / float64(n)
		}
		next := make([]float64, n)
		mid := make([]float64, n)
		for rounds := 0; rounds < maxIter; rounds++ {
			applyWalk(t, mid)
			applyWalk(mid, next)
			diff := 0.0
			for j := 0; j < n; j++ {
				diff += math.Abs(next[j] - t[j])
			}
			t, next = next, t
			if diff < epsilon {
				break
			}
		}
		copy(scores, t)
	}
	compute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add(reputation.Report{Rater: n - 1, Ratee: n - 2, Value: 0.9})
		compute()
	}
}
