package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
)

func sampleEvents() []report.Event {
	return []report.Event{
		{At: 10 * time.Second, Kind: report.ContactUp, A: 1, B: 2},
		{At: 12 * time.Second, Kind: report.MessageCreated, A: 1, Msg: "n1-m1"},
		{At: 20 * time.Second, Kind: report.Relayed, A: 1, B: 2, Msg: "n1-m1"},
		{At: 25 * time.Second, Kind: report.TagAdded, A: 2, Msg: "n1-m1", Keyword: "flood", Relevant: true},
		{At: 30 * time.Second, Kind: report.Delivered, A: 2, B: 3, Msg: "n1-m1"},
		{At: 30 * time.Second, Kind: report.Payment, A: 3, B: 2, Msg: "n1-m1", Tokens: 2.5},
		{At: 40 * time.Second, Kind: report.ContactDown, A: 1, B: 2},
	}
}

func TestBufferRecorder(t *testing.T) {
	var b obs.Buffer
	for _, e := range sampleEvents() {
		b.Event(e)
	}
	if len(b.Events) != 7 {
		t.Fatalf("events = %d", len(b.Events))
	}
	if b.Count(report.ContactUp) != 1 || b.Count(report.Payment) != 1 {
		t.Error("Count wrong")
	}
	if got := b.Filter(report.Relayed); len(got) != 1 || got[0].Msg != "n1-m1" {
		t.Errorf("Filter = %v", got)
	}
	if got := b.Kinds(); len(got) != len(report.AllKinds()) {
		t.Errorf("Buffer subscribes to %v, want every kind", got)
	}
}

func TestConnTraceWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewConnTraceWriter(&buf)
	for _, e := range sampleEvents() {
		w.Event(e)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "10.0 CONN 1 2 up" {
		t.Errorf("up line = %q", lines[0])
	}
	if lines[1] != "40.0 CONN 1 2 down" {
		t.Errorf("down line = %q", lines[1])
	}
	if got := w.Kinds(); len(got) != 2 || got[0] != report.ContactUp || got[1] != report.ContactDown {
		t.Errorf("ConnTraceWriter subscribes to %v, want contact events only", got)
	}
}

func TestJSONLWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewTraceWriter(&buf)
	for _, e := range sampleEvents() {
		w.Event(e)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(sampleEvents()) {
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	var decoded struct {
		Kind    string          `json:"kind"`
		Tokens  float64         `json:"tokens"`
		Msg     ident.MessageID `json:"msg"`
		Keyword string          `json:"keyword"`
	}
	if err := json.Unmarshal([]byte(lines[5]), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Kind != "PAY" || decoded.Tokens != 2.5 {
		t.Errorf("payment line decoded to %+v", decoded)
	}
}

func TestJSONLWriterRoundTripsEveryKind(t *testing.T) {
	// One event of every declared kind, with every payload field that kind
	// can carry populated, must survive the encode→decode round trip.
	events := make([]report.Event, 0, len(report.AllKinds()))
	for i, k := range report.AllKinds() {
		ev := report.Event{
			At:   time.Duration(i+1) * time.Second,
			Kind: k,
			A:    ident.NodeID(i + 1),
			B:    ident.NodeID(i + 2),
			Msg:  ident.MessageID("n1-m1"),
		}
		switch k {
		case report.Payment:
			ev.Tokens = 3.25
		case report.TagAdded:
			ev.Keyword = "flood"
			ev.Relevant = true
		}
		events = append(events, ev)
	}

	var buf bytes.Buffer
	w := obs.NewTraceWriter(&buf)
	if got := w.Kinds(); len(got) != len(events) {
		t.Errorf("TraceWriter subscribes to %v, want every kind", got)
	}
	for _, e := range events {
		w.Event(e)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(events) {
		t.Fatalf("jsonl lines = %d, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		var got struct {
			AtMillis int64           `json:"atMillis"`
			Kind     string          `json:"kind"`
			A        ident.NodeID    `json:"a"`
			B        ident.NodeID    `json:"b"`
			Msg      ident.MessageID `json:"msg"`
			Tokens   float64         `json:"tokens"`
			Keyword  string          `json:"keyword"`
			Relevant bool            `json:"relevant"`
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("kind %v line %q: %v", events[i].Kind, line, err)
		}
		want := events[i]
		if got.Kind != want.Kind.String() {
			t.Errorf("line %d kind = %q, want %q", i, got.Kind, want.Kind)
		}
		if got.AtMillis != want.At.Milliseconds() {
			t.Errorf("%v atMillis = %d, want %d", want.Kind, got.AtMillis, want.At.Milliseconds())
		}
		if got.A != want.A || got.B != want.B || got.Msg != want.Msg {
			t.Errorf("%v endpoints = (%v, %v, %v), want (%v, %v, %v)",
				want.Kind, got.A, got.B, got.Msg, want.A, want.B, want.Msg)
		}
		if got.Tokens != want.Tokens {
			t.Errorf("%v tokens = %v, want %v", want.Kind, got.Tokens, want.Tokens)
		}
		if got.Keyword != want.Keyword || got.Relevant != want.Relevant {
			t.Errorf("%v tag fields = (%q, %t), want (%q, %t)",
				want.Kind, got.Keyword, got.Relevant, want.Keyword, want.Relevant)
		}
	}
}

func TestContactStats(t *testing.T) {
	s := obs.NewContactStats()
	for _, e := range sampleEvents() {
		s.Event(e)
	}
	if s.Completed() != 1 {
		t.Fatalf("completed = %d", s.Completed())
	}
	if s.MeanDuration() != 30*time.Second {
		t.Errorf("mean duration = %v, want 30s", s.MeanDuration())
	}
	// An unmatched down is ignored.
	s.Event(report.Event{At: time.Minute, Kind: report.ContactDown, A: 7, B: 8})
	if s.Completed() != 1 {
		t.Error("unmatched down counted")
	}
	if got := s.Kinds(); len(got) != 2 || got[0] != report.ContactUp || got[1] != report.ContactDown {
		t.Errorf("ContactStats subscribes to %v, want contact events only", got)
	}
}

func TestEmptyContactStats(t *testing.T) {
	s := obs.NewContactStats()
	if s.MeanDuration() != 0 || s.Completed() != 0 {
		t.Error("empty stats must be zero")
	}
}
