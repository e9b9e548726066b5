package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// engine's public functions. Spans of one query share its id.
type span struct {
	id, parent int64
	name       string
	query      int64
	caller     int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t  *tracer
	sp span
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(name string, parent spanRef, query int64, caller int) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{}) // reserve the id; filled on end
	t.mu.Unlock()
	return spanRef{t: t, sp: span{id: id, parent: parent.sp.id, name: name, query: query, caller: caller, start: time.Since(t.origin)}}
}

func (r spanRef) end() time.Duration {
	if r.t == nil {
		return 0
	}
	r.sp.end = time.Since(r.t.origin)
	r.t.mu.Lock()
	r.t.spans[r.sp.id-1] = r.sp
	r.t.mu.Unlock()
	return r.sp.end - r.sp.start
}

// record adds an already measured interval as a closed span.
func (t *tracer) record(name string, parent spanRef, query int64, caller int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	r := t.begin(name, parent, query, caller)
	r.sp.start = start.Sub(t.origin)
	r.sp.end = r.sp.start + dur
	t.mu.Lock()
	t.spans[r.sp.id-1] = r.sp
	t.mu.Unlock()
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Name          string  `json:"name"`
	Count         int     `json:"count"`
	TotalMS       float64 `json:"total_ms"`
	SelfMS        float64 `json:"self_ms"`
	SelfPerCallUS float64 `json:"self_per_call_us"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the time its children cover; children of one span never overlap
// because each caller makes its calls one after another.
func (t *tracer) selfTimes() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.id != 0 && s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		if s.id == 0 {
			continue // opened but never closed
		}
		r := rows[s.name]
		if r == nil {
			r = &layerRow{Name: s.name}
			rows[s.name] = r
		}
		dur := s.end - s.start
		r.Count++
		r.TotalMS += ms(dur)
		r.SelfMS += ms(dur - child[s.id])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.SelfPerCallUS = r.SelfMS * 1e3 / float64(r.Count)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps, one thread per caller), which Perfetto
// and chrome://tracing open directly.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.id == 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: s.caller + 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"query": s.query, "span": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}

func formatLayers(rows []layerRow) string {
	out := fmt.Sprintf("%-28s %8s %12s %12s %14s\n", "layer span", "count", "total_ms", "self_ms", "self_us/call")
	for _, r := range rows {
		out += fmt.Sprintf("%-28s %8d %12.3f %12.3f %14.1f\n", r.Name, r.Count, r.TotalMS, r.SelfMS, r.SelfPerCallUS)
	}
	return out
}
