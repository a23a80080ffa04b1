package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans live in memory until
// the run ends; nothing is written while a pass is being timed.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int // index of the causing span, -1 for a root
	Req    int // spans of one request (or one pass) share it
	// Calls is set on aggregate spans: one span standing for that many
	// calls too short and too many to record one by one (fabric ticks).
	Calls uint64
}

// recorder collects spans. A nil *recorder is the tracing-off state: begin
// and end are no-ops on it, so the workloads call them unconditionally and
// the end-to-end run pays one nil check per boundary.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	d := now - r.spans[id].Start
	r.mu.Unlock()
	return d
}

// aggregate records, as one child of parent, the summed duration of calls
// that were timed from outside but are too many to keep one span each. It is
// laid at the parent's start; only its length carries meaning.
func (r *recorder) aggregate(name string, parent int, d time.Duration, calls uint64) {
	if r == nil || parent < 0 || d <= 0 {
		return
	}
	r.mu.Lock()
	p := r.spans[parent]
	r.spans = append(r.spans, span{Name: name, Start: p.Start, End: p.Start + d, Parent: parent, Req: p.Req, Calls: calls})
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children are counted once (the
// union of their intervals, clipped to the parent), so a parent that fans
// work out in parallel never gets a negative self time.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// byName sums span durations and self times per span name.
func byName(spans []span) (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	st := selfTimes(spans)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		total[s.Name] += s.End - s.Start
		self[s.Name] += st[i]
	}
	return total, self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// maxExportedSpans bounds the trace file: a served block records one span
// per request, and a viewer gains nothing from the hundred-thousandth.
const maxExportedSpans = 50_000

// writeChromeTrace writes the spans as a Chrome trace-event file. Each
// request id becomes a track, so one request's spans stack on one row.
func writeChromeTrace(path string, spans []span) error {
	if len(spans) > maxExportedSpans {
		spans = spans[:maxExportedSpans]
	}
	st := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		args := map[string]any{"self_us": float64(st[i]) / 1e3, "parent": s.Parent}
		if s.Calls > 0 {
			args["aggregate_of_calls"] = s.Calls
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Req, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
