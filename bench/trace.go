package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the index of the span that caused this one (-1 for an
// op's root span).
type span struct {
	Name   string
	Op     int
	Lane   int // client number; one lane never overlaps itself
	Parent int
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so call sites need no
// branches and the untraced pass pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index, for end and as a parent.
func (t *tracer) begin(name string, op, lane, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Lane: lane, Parent: parent, Start: now})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval and returns its index.
func (t *tracer) add(name string, op, lane, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Lane: lane, Parent: parent, Start: start, End: start.Add(d)})
	return len(t.spans) - 1
}

// layerTime is one span name's aggregate.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the total minus the part covered by child spans.
	SelfMs float64 `json:"self_ms"`
}

// summary aggregates total and self time per span name.
func (t *tracer) summary() map[string]layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		d := s.End.Sub(s.Start)
		lt := out[s.Name]
		lt.Count++
		lt.TotalMs += ms(d)
		lt.SelfMs += ms(d - child[i])
		out[s.Name] = lt
	}
	return out
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write emits the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	var origin time.Time
	if len(t.spans) > 0 {
		origin = t.spans[0].Start
	}
	for i, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(origin)) / 1e3,
			Dur: float64(s.End.Sub(s.Start)) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"op": s.Op, "span": i, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
