package workload

import (
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/privacy"
)

// shardedRun executes a full scenario at the given shard count and returns
// everything observable: per-round stats, the summary, satisfactions, the
// privacy facets and the incremental ground truth.
type shardObservation struct {
	rounds   []RoundStats
	summary  Summary
	consumer []float64
	provider []float64
	privacy  []float64
	gt       []float64
	served   []bool
	gathered int64
	fakes    int64
	gateFail int64
}

func observeSharded(t *testing.T, shards int, cfg Config) shardObservation {
	t.Helper()
	cfg.Shards = shards
	e, err := NewEngine(cfg, newEigen(t, cfg.NumPeers))
	if err != nil {
		t.Fatal(err)
	}
	e.AttachLedger(privacy.NewLedger(), 50)
	var rounds []RoundStats
	for i := 0; i < 25; i++ {
		rounds = append(rounds, e.Round())
	}
	gt, served := e.GroundTruth()
	return shardObservation{
		rounds:   rounds,
		summary:  e.Summarize(),
		consumer: e.ConsumerSatisfactions(),
		provider: e.ProviderSatisfactions(),
		privacy:  e.PrivacyFacets(),
		gt:       gt,
		served:   served,
		gathered: e.Gatherer().Gathered,
		fakes:    e.FakeReports,
		gateFail: e.GateFailures,
	}
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardCountInvariance is the determinism contract of the scatter-gather
// pipeline: equal seeds produce bit-for-bit identical results for every
// shard count, over a scenario exercising gating, activity skew, colluders
// and the ledger.
func TestShardCountInvariance(t *testing.T) {
	cfg := Config{
		Seed:     42,
		NumPeers: 60,
		Mix: adversary.Mix{Fractions: map[adversary.Class]float64{
			adversary.Honest:    0.6,
			adversary.Malicious: 0.2,
			adversary.Colluder:  0.2,
		}},
		RecomputeEvery: 3,
		TrustGate:      0.2,
		ActivitySkew:   0.8,
		Disclosure:     0.7,
	}
	ref := observeSharded(t, 1, cfg)
	counts := []int{2, 4, 7, runtime.GOMAXPROCS(0)}
	for _, k := range counts {
		got := observeSharded(t, k, cfg)
		if len(got.rounds) != len(ref.rounds) {
			t.Fatalf("shards=%d: round count diverged", k)
		}
		for i := range ref.rounds {
			if got.rounds[i] != ref.rounds[i] {
				t.Fatalf("shards=%d: round %d stats %+v != %+v", k, i, got.rounds[i], ref.rounds[i])
			}
		}
		if got.summary != ref.summary {
			t.Fatalf("shards=%d: summary\n%+v\n!=\n%+v", k, got.summary, ref.summary)
		}
		if !equalF64(got.consumer, ref.consumer) || !equalF64(got.provider, ref.provider) {
			t.Fatalf("shards=%d: satisfactions diverged", k)
		}
		if !equalF64(got.privacy, ref.privacy) {
			t.Fatalf("shards=%d: privacy facets diverged", k)
		}
		if !equalF64(got.gt, ref.gt) {
			t.Fatalf("shards=%d: ground truth diverged", k)
		}
		for i := range ref.served {
			if got.served[i] != ref.served[i] {
				t.Fatalf("shards=%d: served set diverged at %d", k, i)
			}
		}
		if got.gathered != ref.gathered || got.fakes != ref.fakes || got.gateFail != ref.gateFail {
			t.Fatalf("shards=%d: counters diverged: %+v vs %+v", k, got, ref)
		}
	}
}

// TestSetShardsMidRun changes the shard count between rounds; because shards
// are a scheduling decomposition only, the trajectory must match an all-
// sequential run exactly.
func TestSetShardsMidRun(t *testing.T) {
	cfg := Config{Seed: 9, NumPeers: 40, Mix: mixMalicious(0.3), RecomputeEvery: 2}
	seq, err := NewEngine(cfg, newEigen(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(20)

	dyn, err := NewEngine(cfg, newEigen(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Shards() != 1 {
		t.Fatalf("default shards = %d, want 1", dyn.Shards())
	}
	dyn.Run(5)
	dyn.SetShards(4)
	dyn.Run(10)
	dyn.SetShards(0) // clamps to 1
	if dyn.Shards() != 1 {
		t.Fatalf("SetShards(0) left %d", dyn.Shards())
	}
	dyn.Run(5)
	if seq.Summarize() != dyn.Summarize() {
		t.Fatal("mid-run shard change perturbed the trajectory")
	}
}

// TestShardsValidation rejects negative shard counts and defaults zero.
func TestShardsValidation(t *testing.T) {
	if _, err := NewEngine(Config{NumPeers: 10, Shards: -1}, newEigen(t, 10)); err == nil {
		t.Fatal("negative shard count accepted")
	}
	e, err := NewEngine(Config{NumPeers: 10}, newEigen(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 1 {
		t.Fatalf("zero-value shards resolved to %d, want 1", e.Shards())
	}
}

// TestGroundTruthMatchesLogScan pins the incremental accumulators to the
// reference computation over a tapped interaction log: each provider's mean
// delivered quality, refusals counting as 0 and providers who never served
// ranking neutral at 1.
func TestGroundTruthMatchesLogScan(t *testing.T) {
	cfg := Config{Seed: 21, NumPeers: 50, Mix: mixMalicious(0.4), Shards: 3}
	e, err := NewEngine(cfg, newEigen(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	log := tapInteractions(e)
	e.Run(15)
	gt, served := e.GroundTruth()
	sums := make([]float64, 50)
	counts := make([]int, 50)
	for _, i := range *log {
		q := i.quality
		if i.refused {
			q = 0
		}
		sums[i.provider] += q
		counts[i.provider]++
	}
	want := make([]float64, 50)
	for p := range want {
		want[p] = 1
		if counts[p] > 0 {
			want[p] = sums[p] / float64(counts[p])
		}
		if served[p] != (counts[p] > 0) {
			t.Fatalf("served[%d] = %v, log says %v", p, served[p], counts[p] > 0)
		}
	}
	if !equalF64(gt, want) {
		t.Fatalf("incremental ground truth diverged from log scan:\n%v\n%v", gt, want)
	}
	cum := e.CumulativeStats()
	if cum.Interactions != len(*log) {
		t.Fatalf("cumulative interactions %d != log length %d", cum.Interactions, len(*log))
	}
	if cum.Round != 15 {
		t.Fatalf("cumulative round = %d, want 15", cum.Round)
	}
}
