package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one step (or one request, or one recover cycle) share
// Group; Parent is the Seq of the enclosing span, 0 at the top. Async spans
// ran beside the blocking path (the persist worker) and are left out of
// self-time sums.
type span struct {
	Name   string
	Group  string
	Seq    int
	Parent int
	Start  int64 // ns since the tracer was made
	End    int64
	Lane   int
	Async  bool
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the lifecycle code is written once and the untraced passes
// pay a pointer test per call site.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span

	// The step thread nests spans with a stack; request and worker spans
	// are added with explicit parents from other goroutines.
	stack []int
	group string
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// setGroup names the step (or cycle) the step thread's next spans belong to.
func (t *tracer) setGroup(g string) {
	if t != nil {
		t.group = g
	}
}

type openSpan struct {
	t   *tracer
	idx int
}

// start opens a span on the step thread, nested under the innermost open one.
func (t *tracer) start(name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.mu.Lock()
	seq := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Group: t.group, Seq: seq, Parent: parent, Start: t.now()})
	t.mu.Unlock()
	t.stack = append(t.stack, seq)
	return openSpan{t, seq - 1}
}

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	end := o.t.now()
	o.t.mu.Lock()
	o.t.spans[o.idx].End = end
	o.t.mu.Unlock()
	o.t.stack = o.t.stack[:len(o.t.stack)-1]
}

// add records a finished span from any goroutine and returns its Seq.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	s.Seq = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.Seq
}

// addCallbacks records the summed time of the callbacks the innermost open
// span ran, as one child of it. The span is a sum, not an interval, so it
// goes on lane 1, where adopt never looks for a parent.
func (t *tracer) addCallbacks(name string, start, total int64) {
	if t == nil {
		return
	}
	t.add(span{Name: name, Group: t.group, Parent: t.stack[len(t.stack)-1], Start: start, End: start + total, Lane: 1})
}

// adopt records a finished span of the current group whose caller is not on
// the stack any more: its parent is the deepest step-thread span of the group
// that contains it.
func (t *tracer) adopt(name string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := t.spans[i]
		if s.Group != t.group {
			break
		}
		if s.Lane == 0 && !s.Async && s.Start <= start && end <= s.End && (parent == 0 || s.Start >= t.spans[parent-1].Start) {
			parent = s.Seq
		}
	}
	t.spans = append(t.spans, span{Name: name, Group: t.group, Seq: len(t.spans) + 1, Parent: parent, Start: start, End: end})
}

// selfTimes returns, per span, its duration minus the part its non-async
// children cover. Children never overlap on one lane, so the sum of the
// self times under a root equals the root's duration.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent > 0 && !s.Async {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// chromeEvent is one trace_event "complete" record; Perfetto and
// chrome://tracing both load a {"traceEvents": [...]} document of them.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.Group, "span": s.Seq, "parent": s.Parent, "self_us": float64(self[i]) / 1e3, "async": s.Async},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
