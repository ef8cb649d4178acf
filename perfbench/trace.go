package main

import (
	"sort"
	"sync"
	"time"
)

// Span names. Every span is timed from outside the program, around a call
// into a public function or between two observer callbacks:
//
//	trustnet.next       one Session.Next (or serve.Server.Advance) call
//	workload.round      from the epoch's start or the previous OnRound
//	                    callback to this round's OnRound callback
//	core.tail           from the last OnRound callback to Next returning
//	reputation.compute  one Mechanism.Compute call
//	reputation.submit   one BatchSubmitter.SubmitBatch call
const (
	spanNext    = "trustnet.next"
	spanRound   = "workload.round"
	spanTail    = "core.tail"
	spanCompute = "reputation.compute"
	spanSubmit  = "reputation.submit"
)

// span is one timed interval. Parent is filled in by nest: the innermost
// span that contains this one, or -1.
type span struct {
	Name   string `json:"name"`
	Epoch  int    `json:"epoch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// Times are nanoseconds since the tracer's origin.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	epoch  int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// setEpoch tags the spans recorded from now on with the given epoch index.
func (t *tracer) setEpoch(e int) {
	t.mu.Lock()
	t.epoch = e
	t.mu.Unlock()
}

func (t *tracer) add(name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Epoch: t.epoch, Start: start, End: end, Parent: -1})
	t.mu.Unlock()
}

// time runs fn inside a span.
func (t *tracer) time(name string, fn func()) {
	start := t.now()
	fn()
	t.add(name, start, t.now())
}

// finish nests the recorded spans and returns them.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	nest(t.spans)
	return t.spans
}

// nest sets each span's Parent to the innermost span containing it. Spans
// are recorded when they close, so children arrive before their parents;
// ordering by start (longest first on ties) and keeping a stack of open
// spans recovers the tree.
func nest(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	var stack []int
	for _, i := range order {
		for len(stack) > 0 && spans[i].End > spans[stack[len(stack)-1]].End {
			stack = stack[:len(stack)-1]
		}
		spans[i].Parent = -1
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// perEpoch sums, for each epoch in [0, epochs), the self time (self=true) or
// the duration of the spans with the given name, in milliseconds.
func perEpoch(spans []span, self []int64, name string, epochs int, useSelf bool) []float64 {
	out := make([]float64, epochs)
	for i, s := range spans {
		if s.Name != name || s.Epoch < 0 || s.Epoch >= epochs {
			continue
		}
		d := s.dur()
		if useSelf {
			d = self[i]
		}
		out[s.Epoch] += float64(d) / 1e6
	}
	return out
}

// countSpans returns how many spans carry the name, and their summed
// duration in nanoseconds.
func countSpans(spans []span, name string) (n int, total int64) {
	for _, s := range spans {
		if s.Name == name {
			n++
			total += s.dur()
		}
	}
	return n, total
}
