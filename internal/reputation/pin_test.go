package reputation_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/reputation"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/powertrust"
	"repro/internal/sim"
)

// pinnedMechanismHashes are FNV-64a digests of every Raw() vector and
// LastConvergence() record a seeded report stream produces, captured from
// the map-backed matrices and per-mechanism power loops that preceded the
// shared sorted-row store and walk core. Equality here means the
// refactored code runs the same float operations in the same order.
var pinnedMechanismHashes = map[string]uint64{
	"eigentrust/warm":       0x4cca26ee14b45805,
	"eigentrust/cold":       0x34121042aee19f4e,
	"powertrust/warm":       0xcb786bab10c47878,
	"powertrust/cold":       0xe128361691d1ab52,
	"powertrust-plain/warm": 0x9272589710cacc11,
	"powertrust-plain/cold": 0xcf4e04740ad66de7,
}

// pinMechanism is the part of both mechanisms the pin stream drives.
type pinMechanism interface {
	reputation.Mechanism
	reputation.BatchSubmitter
	reputation.ComputeSharder
	reputation.ConvergenceReporter
	reputation.Snapshotter
	Raw() []float64
}

// TestMechanismBitsPinned replays one seeded report stream — batches,
// single submits, rejected reports, an EigenTrust whitewash and a
// snapshot→restore midway — through every mechanism at 1 and 4 workers
// with warm and cold starts, and checks the digest of all scores and
// convergence diagnostics against the pinned constant.
func TestMechanismBitsPinned(t *testing.T) {
	const n = 160
	builders := map[string]func(cold bool) (pinMechanism, error){
		"eigentrust": func(cold bool) (pinMechanism, error) {
			return eigentrust.New(eigentrust.Config{N: n, Pretrusted: []int{0, 3, 7}, ColdStart: cold})
		},
		"powertrust": func(cold bool) (pinMechanism, error) {
			return powertrust.New(powertrust.Config{N: n, ColdStart: cold})
		},
		"powertrust-plain": func(cold bool) (pinMechanism, error) {
			return powertrust.NewPlain(powertrust.Config{N: n, ColdStart: cold})
		},
	}
	for _, name := range []string{"eigentrust", "powertrust", "powertrust-plain"} {
		for _, start := range []string{"warm", "cold"} {
			key := name + "/" + start
			var first uint64
			for _, workers := range []int{1, 4} {
				got := pinRun(t, builders[name], start == "cold", workers, n)
				if workers == 1 {
					first = got
				} else if got != first {
					t.Errorf("%s: workers=%d digest %#x differs from workers=1 %#x", key, workers, got, first)
				}
			}
			if want := pinnedMechanismHashes[key]; first != want {
				t.Errorf("%s: digest %#x, pinned %#x", key, first, want)
			}
		}
	}
}

func pinRun(t *testing.T, build func(cold bool) (pinMechanism, error), cold bool, workers, n int) uint64 {
	t.Helper()
	m, err := build(cold)
	if err != nil {
		t.Fatal(err)
	}
	m.SetComputeShards(workers)
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	rng := sim.NewRNG(41)
	for round := 0; round < 14; round++ {
		batch := make([]reputation.Report, 0, 240)
		for k := 0; k < 240; k++ {
			rater := rng.Intn(n)
			ratee := rng.Intn(n)
			if k%3 == 0 {
				ratee = rng.Intn(n / 8) // a popular head keeps some rows long
			}
			if rater == ratee {
				continue
			}
			// Values past [0,1] exercise PowerTrust's clamp.
			v := rng.Float64()*1.4 - 0.2
			batch = append(batch, reputation.Report{TxID: uint64(round*1000 + k), Rater: rater, Ratee: ratee, Value: v})
		}
		cut := len(batch) * 2 / 3
		if err := m.SubmitBatch(batch[:cut]); err != nil {
			t.Fatal(err)
		}
		for _, r := range batch[cut:] {
			if err := m.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		// Rejected reports must leave no trace.
		if m.Submit(reputation.Report{Rater: 5, Ratee: 5, Value: 1}) == nil {
			t.Fatal("self-rating accepted")
		}
		if m.Submit(reputation.Report{Rater: 2, Ratee: n, Value: 1}) == nil {
			t.Fatal("out-of-range report accepted")
		}
		if ww, ok := m.(reputation.Whitewasher); ok && round == 5 {
			ww.Whitewash(11)
			ww.Whitewash(0)
		}
		if round == 7 {
			blob, err := m.MechanismState()
			if err != nil {
				t.Fatal(err)
			}
			if m, err = build(cold); err != nil {
				t.Fatal(err)
			}
			m.SetComputeShards(workers)
			if err := m.RestoreMechanismState(blob); err != nil {
				t.Fatal(err)
			}
		}
		word(uint64(m.Compute()))
		for _, v := range m.Raw() {
			word(math.Float64bits(v))
		}
		conv, ok := m.LastConvergence()
		word(uint64(conv.Iterations))
		word(math.Float64bits(conv.Residual))
		if conv.Warm {
			word(1)
		}
		if ok {
			word(1)
		}
		if ca, ok := m.(reputation.CommunityAssessor); ok {
			word(math.Float64bits(ca.TrustworthyFraction()))
		}
	}
	return h.Sum64()
}
