package workload

// tapInteractions starts recording every interaction e completes, in gather
// order, and returns the growing log: the test-only oracle the incremental
// accumulators and round counters are checked against.
func tapInteractions(e *Engine) *[]interactionResult {
	log := new([]interactionResult)
	e.tap = func(r *interactionResult) { *log = append(*log, *r) }
	return log
}
