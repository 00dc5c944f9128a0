package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"spectrebench/internal/engine"
	"spectrebench/internal/gls"
	"spectrebench/internal/store"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch; parent indexes the tracer's
// span slice (-1 for a root); id is the iteration or request the span
// belongs to; tid is the goroutine that made the call.
type span struct {
	name       string
	parent     int
	id         int64
	tid        uint64
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  map[uint64][]int // per goroutine, the spans begun and not ended, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: map[uint64][]int{}} }

// begin opens a span and returns its handle (-1 on a nil tracer). A
// span begun while another is open on the same goroutine is that span's
// child, whatever parent the caller names: an engine worker that runs
// one experiment while waiting inside another works for the outer one.
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	tid := gls.ID()
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if open := t.open[tid]; len(open) > 0 {
		parent = open[len(open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, tid: tid, start: start})
	i := len(t.spans) - 1
	t.open[tid] = append(t.open[tid], i)
	return i
}

// end closes the span begin returned. Spans end on the goroutine that
// began them, innermost first.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	tid := t.spans[i].tid
	if open := t.open[tid]; len(open) > 0 && open[len(open)-1] == i {
		t.open[tid] = open[:len(open)-1]
	}
}

// record adds a span whose start and end the caller timed itself.
func (t *tracer) record(name string, parent int, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{name: name, parent: parent, id: id, tid: gls.ID(),
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of its interval
// covered by the union of its children (children may overlap each
// other when they ran on different goroutines).
func selfTimes(spans []span) map[string]int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && s.parent < len(spans) {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := spans[c].start, spans[c].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		out[s.name] += (s.end - s.start) - unionLen(ivs)
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			if iv[1] > curHi {
				curHi = iv[1]
			}
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeChromeTrace writes spans in Chrome trace-event format (complete
// "X" events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	bw.WriteString(`{"traceEvents":[`)
	enc := json.NewEncoder(bw)
	for i, s := range spans {
		if i > 0 {
			bw.WriteString(",")
		}
		args := map[string]any{"id": s.id}
		if s.parent >= 0 {
			args["parent"] = spans[s.parent].name
		}
		enc.Encode(event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.tid, Args: args})
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore decorates a *store.Store with spans around every call the
// engine makes into it. It implements exactly the optional engine
// interfaces *store.Store does (bench_test.go checks), so the engine
// takes the same code paths with and without it.
type timedStore struct {
	st     *store.Store
	tr     *tracer
	parent int // span the store calls belong to (the current iteration)
	id     int64
}

func (s *timedStore) Get(key engine.Key) (any, uint64, bool) {
	i := s.tr.begin("store.Get", s.parent, s.id)
	defer s.tr.end(i)
	return s.st.Get(key)
}

func (s *timedStore) Put(key engine.Key, val any, cycles uint64) {
	i := s.tr.begin("store.Put", s.parent, s.id)
	s.st.Put(key, val, cycles)
	s.tr.end(i)
}

func (s *timedStore) GetBatch(keys []engine.Key) []engine.BatchGet {
	i := s.tr.begin("store.GetBatch", s.parent, s.id)
	defer s.tr.end(i)
	return s.st.GetBatch(keys)
}

func (s *timedStore) PutLink(display, canonical engine.Key) {
	i := s.tr.begin("store.PutLink", s.parent, s.id)
	s.st.PutLink(display, canonical)
	s.tr.end(i)
}

func (s *timedStore) PutLinkBatch(pairs []engine.LinkPair) {
	i := s.tr.begin("store.PutLinkBatch", s.parent, s.id)
	s.st.PutLinkBatch(pairs)
	s.tr.end(i)
}

// secondLevel returns what to install as the engine's second level:
// the store itself untraced, the span-recording decorator traced.
func secondLevel(st *store.Store, tr *tracer, parent int, id int64) engine.SecondLevel {
	if tr == nil {
		return st
	}
	return &timedStore{st: st, tr: tr, parent: parent, id: id}
}
