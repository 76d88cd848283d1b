package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/report"
)

// The event writers below render the report.Event stream. Each is an
// Observer that subscribes, through KindFilter, to the kinds it renders;
// attach one by appending it to core.Config.Observers.

// ConnTraceWriter renders contact events in the ONE simulator's
// connectivity-trace format:
//
//	<time> CONN <a> <b> up|down
//
// so existing DTN tooling that consumes ONE traces can analyse runs.
type ConnTraceWriter struct {
	Base
	w   io.Writer
	err error
}

var (
	_ Observer   = (*ConnTraceWriter)(nil)
	_ KindFilter = (*ConnTraceWriter)(nil)
)

// NewConnTraceWriter wraps w.
func NewConnTraceWriter(w io.Writer) *ConnTraceWriter {
	return &ConnTraceWriter{w: w}
}

// Kinds implements KindFilter: contact events only.
func (c *ConnTraceWriter) Kinds() []report.Kind {
	return []report.Kind{report.ContactUp, report.ContactDown}
}

// Event implements Observer; non-contact events are ignored.
func (c *ConnTraceWriter) Event(e report.Event) {
	if c.err != nil {
		return
	}
	var state string
	switch e.Kind {
	case report.ContactUp:
		state = "up"
	case report.ContactDown:
		state = "down"
	default:
		return
	}
	_, c.err = fmt.Fprintf(c.w, "%.1f CONN %d %d %s\n", e.At.Seconds(), int(e.A), int(e.B), state)
}

// Err returns the first write error, if any.
func (c *ConnTraceWriter) Err() error { return c.err }

// TraceWriter renders every event as one JSON object per line: the event
// trace behind dtnsim's -trace flag, in the format external analysis
// pipelines ingest. (JSONLSink, by contrast, exports snapshots.)
type TraceWriter struct {
	Base
	enc *json.Encoder
	err error
}

var (
	_ Observer   = (*TraceWriter)(nil)
	_ KindFilter = (*TraceWriter)(nil)
)

// NewTraceWriter wraps w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w)}
}

type traceEvent struct {
	AtMillis int64           `json:"atMillis"`
	Kind     string          `json:"kind"`
	A        ident.NodeID    `json:"a"`
	B        ident.NodeID    `json:"b,omitempty"`
	Msg      ident.MessageID `json:"msg,omitempty"`
	Tokens   float64         `json:"tokens,omitempty"`
	Keyword  string          `json:"keyword,omitempty"`
	Relevant bool            `json:"relevant,omitempty"`
}

// Kinds implements KindFilter: every kind.
func (j *TraceWriter) Kinds() []report.Kind { return report.AllKinds() }

// Event implements Observer.
func (j *TraceWriter) Event(e report.Event) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(traceEvent{
		AtMillis: e.At.Milliseconds(),
		Kind:     e.Kind.String(),
		A:        e.A,
		B:        e.B,
		Msg:      e.Msg,
		Tokens:   e.Tokens,
		Keyword:  e.Keyword,
		Relevant: e.Relevant,
	})
}

// Err returns the first write error, if any.
func (j *TraceWriter) Err() error { return j.err }

// ContactStats aggregates contact durations from the event stream — the
// ONE simulator's ContactTimesReport equivalent.
type ContactStats struct {
	Base
	open  map[[2]ident.NodeID]time.Duration
	count int
	total time.Duration
}

var (
	_ Observer   = (*ContactStats)(nil)
	_ KindFilter = (*ContactStats)(nil)
)

// NewContactStats returns an empty aggregator.
func NewContactStats() *ContactStats {
	return &ContactStats{open: make(map[[2]ident.NodeID]time.Duration)}
}

// Kinds implements KindFilter: contact events only.
func (s *ContactStats) Kinds() []report.Kind {
	return []report.Kind{report.ContactUp, report.ContactDown}
}

// Event implements Observer.
func (s *ContactStats) Event(e report.Event) {
	key := [2]ident.NodeID{e.A, e.B}
	switch e.Kind {
	case report.ContactUp:
		s.open[key] = e.At
	case report.ContactDown:
		if start, ok := s.open[key]; ok {
			s.count++
			s.total += e.At - start
			delete(s.open, key)
		}
	}
}

// Completed returns the number of finished contacts.
func (s *ContactStats) Completed() int { return s.count }

// MeanDuration returns the mean completed-contact duration.
func (s *ContactStats) MeanDuration() time.Duration {
	if s.count == 0 {
		return 0
	}
	return s.total / time.Duration(s.count)
}

// Buffer retains every event in memory; tests and small analyses use it.
type Buffer struct {
	Base
	Events []report.Event
}

var (
	_ Observer   = (*Buffer)(nil)
	_ KindFilter = (*Buffer)(nil)
)

// Kinds implements KindFilter: every kind.
func (b *Buffer) Kinds() []report.Kind { return report.AllKinds() }

// Event implements Observer.
func (b *Buffer) Event(e report.Event) { b.Events = append(b.Events, e) }

// Count returns how many events of the kind were recorded.
func (b *Buffer) Count(k report.Kind) int {
	n := 0
	for _, e := range b.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Filter returns the events of the kind, in order.
func (b *Buffer) Filter(k report.Kind) []report.Event {
	var out []report.Event
	for _, e := range b.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}
