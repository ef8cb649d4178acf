package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/privacy"
	"repro/internal/reputation"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/powertrust"
	"repro/internal/reputation/trustme"
	"repro/internal/sim"
	"repro/internal/social"
	"repro/internal/workload"
	"repro/trustnet"
)

func benchMix(malicious float64) adversary.Mix {
	return adversary.Mix{
		Fractions: map[adversary.Class]float64{
			adversary.Honest:    1 - malicious,
			adversary.Malicious: malicious,
		},
		ForceHonest: []int{0, 1, 2},
	}
}

func mustEigen(b *testing.B, n int) *eigentrust.Mechanism {
	b.Helper()
	m, err := eigentrust.New(eigentrust.Config{N: n, Pretrusted: []int{0, 1, 2}})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkE1Coupling regenerates E1 (Fig. 1): one coupled-feedback epoch
// over 100 peers with 30% malicious.
func BenchmarkE1Coupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dyn, err := core.NewDynamics(core.DynamicsConfig{
			Workload: workload.Config{
				Seed: 1, NumPeers: 100, Mix: benchMix(0.3),
				Disclosure: 0.8, RecomputeEvery: 2,
			},
			Coupled:     true,
			EpochRounds: 8,
		}, mustEigen(b, 100))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dyn.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2IteratedMap regenerates E2: the trust/satisfaction fixed-point
// iteration from 11 starting points.
func BenchmarkE2IteratedMap(b *testing.B) {
	cfg := core.MapConfig{Reputation: 0.8, Privacy: 0.8}
	for i := 0; i < b.N; i++ {
		for k := 0; k <= 10; k++ {
			if _, err := core.RunIteratedMap(float64(k)/10, 40, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE5DisclosureSweep regenerates one point of E5 (Fig. 2 right):
// evaluating a disclosure setting end to end.
func BenchmarkE5DisclosureSweep(b *testing.B) {
	cfg := core.ExploreConfig{
		Base: workload.Config{
			Seed: 1, NumPeers: 100, Mix: benchMix(0.3), RecomputeEvery: 2,
		},
		Mechanism: func(n int) (reputation.Mechanism, error) {
			return eigentrust.New(eigentrust.Config{N: n, Pretrusted: []int{0, 1, 2}})
		},
		Rounds: 20,
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateSetting(cfg, core.Setting{Disclosure: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6AreaA regenerates E6 (Fig. 2 left): a 3x3 grid classification
// (the sweep-backed facade explorer).
func BenchmarkE6AreaA(b *testing.B) {
	cfg := trustnet.ExploreConfig{
		Scenario: trustnet.Scenario{
			Peers: 60, Seed: 1,
			Mix:            trustnet.MixOf(map[string]float64{"malicious": 0.3}, 0, 1, 2),
			Mechanism:      trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
			RecomputeEvery: 2,
		},
		Rounds:   15,
		GridSize: 3,
	}
	for i := 0; i < b.N; i++ {
		if _, err := trustnet.Explore(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Mechanisms regenerates E7: a file-sharing run per mechanism at
// 30% malicious.
func BenchmarkE7Mechanisms(b *testing.B) {
	const n = 100
	mechs := map[string]func() (reputation.Mechanism, error){
		"none": func() (reputation.Mechanism, error) { return reputation.NewNone(n), nil },
		"eigentrust": func() (reputation.Mechanism, error) {
			return eigentrust.New(eigentrust.Config{N: n, Pretrusted: []int{0, 1, 2}})
		},
		"powertrust": func() (reputation.Mechanism, error) {
			return powertrust.New(powertrust.Config{N: n})
		},
		"trustme": func() (reputation.Mechanism, error) {
			return trustme.New(trustme.Config{N: n})
		},
	}
	for name, mk := range mechs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mech, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				eng, err := workload.NewEngine(workload.Config{
					Seed: 1, NumPeers: n, Mix: benchMix(0.3), RecomputeEvery: 2,
				}, mech)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				eng.Run(20)
			}
		})
	}
}

// BenchmarkE8Adversary regenerates E8: EigenTrust facing each adversary
// class at 30%.
func BenchmarkE8Adversary(b *testing.B) {
	classes := []adversary.Class{
		adversary.Malicious, adversary.Traitor, adversary.Slanderer, adversary.Colluder,
	}
	for _, cls := range classes {
		b.Run(cls.String(), func(b *testing.B) {
			mix := adversary.Mix{
				Fractions:   map[adversary.Class]float64{adversary.Honest: 0.7, cls: 0.3},
				ForceHonest: []int{0, 1, 2},
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, err := workload.NewEngine(workload.Config{
					Seed: 1, NumPeers: 80, Mix: mix, RecomputeEvery: 2,
				}, mustEigen(b, 80))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				eng.Run(20)
			}
		})
	}
}

// BenchmarkE9PriServ regenerates E9's workload: policy-checked requests
// against the PriServ-style service.
func BenchmarkE9PriServ(b *testing.B) {
	ring := dht.NewRing(3)
	for i := 0; i < 32; i++ {
		if err := ring.Join(i); err != nil {
			b.Fatal(err)
		}
	}
	ring.Stabilize()
	ledger := privacy.NewLedger()
	s := sim.New()
	svc, err := privacy.NewService(ring, ledger, s)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("item/%d", i)
		sens := social.Sensitivity(i%4 + 1)
		if err := svc.Publish(i, key, []byte("data"), sens, privacy.DefaultPolicy(sens)); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("item/%d", rng.Intn(50))
		_, _, _ = svc.Request(rng.Intn(50), key, privacy.Read, privacy.SocialUse, rng.Float64(), rng.Bool(0.5))
	}
}

// BenchmarkE10Optimize regenerates E10: the constrained optimizer on a
// small grid (the sweep-backed facade optimizer).
func BenchmarkE10Optimize(b *testing.B) {
	cfg := trustnet.ExploreConfig{
		Scenario: trustnet.Scenario{
			Peers: 50, Seed: 1,
			Mix:            trustnet.MixOf(map[string]float64{"malicious": 0.3}, 0, 1, 2),
			Mechanism:      trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
			RecomputeEvery: 2,
		},
		Rounds:   12,
		GridSize: 3,
		Weights:  core.ContextWeights(core.PrivacyCritical),
	}
	for i := 0; i < b.N; i++ {
		if _, err := trustnet.Optimize(context.Background(), cfg, trustnet.Constraints{MinPrivacy: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkDHTLookup(b *testing.B) {
	ring := dht.NewRing(3)
	for i := 0; i < 256; i++ {
		if err := ring.Join(i); err != nil {
			b.Fatal(err)
		}
	}
	ring.Stabilize()
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := ring.Put(keys[i], []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ring.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDHTStabilize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ring := dht.NewRing(3)
		for j := 0; j < 128; j++ {
			if err := ring.Join(j); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		ring.Stabilize()
	}
}

func BenchmarkGossipRound(b *testing.B) {
	s := sim.New()
	net := overlay.NewNetwork(s, sim.NewRNG(1), 512, overlay.Config{})
	ps := overlay.NewPeerSampler(net, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.Round()
	}
}

func BenchmarkEigenTrustCompute(b *testing.B) {
	rng := sim.NewRNG(1)
	m := mustEigen(b, 200)
	for k := 0; k < 5000; k++ {
		i, j := rng.Intn(200), rng.Intn(200)
		if i != j {
			_ = m.Submit(reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Submit(reputation.Report{TxID: uint64(i), Rater: 0, Ratee: 1 + i%199, Value: 0.9})
		m.Compute()
	}
}

func BenchmarkPowerTrustCompute(b *testing.B) {
	rng := sim.NewRNG(1)
	m, err := powertrust.New(powertrust.Config{N: 200})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 5000; k++ {
		i, j := rng.Intn(200), rng.Intn(200)
		if i != j {
			_ = m.Submit(reputation.Report{Rater: i, Ratee: j, Value: rng.Float64()})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Submit(reputation.Report{TxID: uint64(i), Rater: 0, Ratee: 1 + i%199, Value: 0.9})
		m.Compute()
	}
}

func BenchmarkDistributedEigenTrust(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := mustEigen(b, 50)
		rng := sim.NewRNG(1)
		for k := 0; k < 1000; k++ {
			x, y := rng.Intn(50), rng.Intn(50)
			if x != y {
				_ = m.Submit(reputation.Report{Rater: x, Ratee: y, Value: rng.Float64()})
			}
		}
		s := sim.New()
		net := overlay.NewNetwork(s, sim.NewRNG(2), 50, overlay.Config{})
		b.StartTimer()
		if _, err := m.RunDistributed(net, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrustMeSubmit(b *testing.B) {
	m, err := trustme.New(trustme.Config{N: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reputation.Report{TxID: uint64(i), Rater: i % 63, Ratee: 63, Value: 0.8}
		if r.Rater == r.Ratee {
			continue
		}
		if err := m.Submit(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyEvaluate(b *testing.B) {
	pol := privacy.DefaultPolicy(social.High)
	req := privacy.Request{
		Requester: 1, Owner: 0, Operation: privacy.Read,
		Purpose: privacy.SocialUse, RequesterTrust: 0.9, IsFriend: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pol.Evaluate(req, sim.Time(i))
	}
}

// BenchmarkLedgerExposure times one owner's exposure query over engine-like
// traffic: feedback reports, profile disclosures and PriServ-style named
// items.
func BenchmarkLedgerExposure(b *testing.B) {
	l := privacy.NewLedger()
	rng := sim.NewRNG(1)
	for k := 0; k < 5000; k++ {
		owner := rng.Intn(50)
		switch rng.Intn(3) {
		case 0:
			l.RecordFeedback(owner)
		case 1:
			l.Record(privacy.Disclosure{
				Owner: owner, Item: fmt.Sprintf("profile/%d", owner),
				Sensitivity: social.Medium, Recipient: rng.Intn(50), Consented: true,
			})
		default:
			l.Record(privacy.Disclosure{
				Owner: owner, Item: fmt.Sprintf("item/%d", rng.Intn(200)),
				Sensitivity: social.Sensitivity(rng.Intn(4) + 1),
				Recipient:   rng.Intn(50), Consented: true,
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Exposure(i % 50)
	}
}

func BenchmarkCertSealVerify(b *testing.B) {
	key := []byte("tha-key")
	for i := 0; i < b.N; i++ {
		c := crypto.SealCert(key, uint64(i), "peer-1", "peer-2")
		if err := crypto.VerifyCert(key, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarabasiAlbert(b *testing.B) {
	rng := sim.NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = graph.BarabasiAlbert(rng, 1000, 4)
	}
}

func BenchmarkKendallTau(b *testing.B) {
	rng := sim.NewRNG(1)
	x := make([]float64, 300)
	y := make([]float64, 300)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = metrics.KendallTau(x, y)
	}
}

func BenchmarkWorkloadRound(b *testing.B) {
	eng, err := workload.NewEngine(workload.Config{
		Seed: 1, NumPeers: 200, Mix: benchMix(0.3), RecomputeEvery: 1 << 30,
	}, mustEigen(b, 200))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Round()
	}
}

// BenchmarkAblationCombine contrasts the geometric metric with the
// arithmetic ablation (cost and behaviour are both of interest).
func BenchmarkAblationCombine(b *testing.B) {
	f := core.Facets{Satisfaction: 0.8, Reputation: 0.6, Privacy: 0.9}
	w := core.DefaultWeights()
	b.Run("geometric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Combine(f, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arithmetic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CombineArithmetic(f, w); err != nil {
				b.Fatal(err)
			}
		}
	})
}
