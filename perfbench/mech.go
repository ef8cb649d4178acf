package main

import (
	"repro/internal/reputation"
	"repro/trustnet"
)

// timedMechanism is the traced run's EigenTrust: it embeds the concrete
// mechanism, so every optional reputation interface it implements is still
// promoted to the engine, and times only the two calls that carry the
// mechanism's work.
type timedMechanism struct {
	*trustnet.EigenTrustMechanism
	tr      *tracer
	reports int64
}

func (m *timedMechanism) Compute() int {
	var it int
	m.tr.time(spanCompute, func() { it = m.EigenTrustMechanism.Compute() })
	return it
}

func (m *timedMechanism) SubmitBatch(rs []reputation.Report) error {
	var err error
	m.tr.time(spanSubmit, func() { err = m.EigenTrustMechanism.SubmitBatch(rs) })
	m.reports += int64(len(rs))
	return err
}

// newTimedMechanism builds the scenario's EigenTrust for peers users,
// wrapped for tracing.
func newTimedMechanism(sc trustnet.Scenario, tr *tracer) (*timedMechanism, error) {
	spec := sc.Mechanism
	m, err := trustnet.NewEigenTrust(trustnet.EigenTrustConfig{
		N:          sc.Peers,
		Pretrusted: append([]int(nil), spec.Pretrusted...),
		Alpha:      spec.Alpha,
		Epsilon:    spec.Epsilon,
		MaxIter:    spec.MaxIter,
	})
	if err != nil {
		return nil, err
	}
	return &timedMechanism{EigenTrustMechanism: m, tr: tr}, nil
}

// newEngine builds the scenario's engine; with a tracer, its mechanism is
// the timed wrapper.
func newEngine(sc trustnet.Scenario, tr *tracer) (*trustnet.Engine, *timedMechanism, error) {
	opts, err := sc.Options()
	if err != nil {
		return nil, nil, err
	}
	if tr == nil {
		eng, err := trustnet.New(opts...)
		return eng, nil, err
	}
	m, err := newTimedMechanism(sc, tr)
	if err != nil {
		return nil, nil, err
	}
	eng, err := trustnet.New(append(opts, trustnet.WithReputationMechanism(trustnet.UseMechanism(m)))...)
	return eng, m, err
}
