package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"dtnsim/internal/report"
)

// JSONLSink is the structured-export observer behind the CLIs' `-obs
// jsonl=PATH` flag: it renders the run's lifecycle as one JSON object per
// line — a run_start record carrying the Meta, a heartbeat record per
// heartbeat, and a run_end record with the final snapshot. It subscribes to
// no event kinds, so attaching one adds nothing to the per-event hot path.
//
// Writes are mutex-serialised, so a single sink may be shared by several
// engines running concurrently (dtnexp attaches one across a whole sweep);
// lines from different runs interleave but each line is intact.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

var (
	_ Observer   = (*JSONLSink)(nil)
	_ KindFilter = (*JSONLSink)(nil)
)

// NewJSONLSink wraps w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// jsonlRecord is one exported line.
type jsonlRecord struct {
	Type     string    `json:"type"` // run_start, heartbeat, run_end
	Meta     *Meta     `json:"meta,omitempty"`
	Snapshot *Snapshot `json:"snapshot,omitempty"`
}

func (s *JSONLSink) write(rec jsonlRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(rec)
}

// Kinds implements KindFilter: the sink exports snapshots, not events.
func (s *JSONLSink) Kinds() []report.Kind { return []report.Kind{} }

// RunStart implements Observer.
func (s *JSONLSink) RunStart(m Meta) { s.write(jsonlRecord{Type: "run_start", Meta: &m}) }

// Event implements Observer; never called thanks to Kinds.
func (s *JSONLSink) Event(report.Event) {}

// Heartbeat implements Observer.
func (s *JSONLSink) Heartbeat(snap Snapshot) {
	s.write(jsonlRecord{Type: "heartbeat", Snapshot: &snap})
}

// RunEnd implements Observer.
func (s *JSONLSink) RunEnd(snap Snapshot) {
	s.write(jsonlRecord{Type: "run_end", Snapshot: &snap})
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// OpenJSONL resolves a structured-export flag of the form "jsonl=PATH":
// it creates PATH and returns the sink plus the file for the caller to
// close once the run ends (after checking Err). An empty spec is not an
// export request and returns (nil, nil, nil), so callers can pass the
// flag value through unconditionally.
func OpenJSONL(spec string) (*JSONLSink, io.Closer, error) {
	if spec == "" {
		return nil, nil, nil
	}
	path, ok := strings.CutPrefix(spec, "jsonl=")
	if !ok || path == "" {
		return nil, nil, fmt.Errorf("obs: invalid export spec %q (want jsonl=PATH)", spec)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return NewJSONLSink(f), f, nil
}

// LogSink is the human-readable heartbeat printer behind dtnsim's
// `-heartbeat` flag: one compact progress line per heartbeat and a final
// line at run end, showing where simulated time stands, the sim-s/s and
// events/s rates, and the per-phase share of instrumented engine time.
// Like JSONLSink it subscribes to no event kinds and serialises writes.
type LogSink struct {
	mu sync.Mutex
	w  io.Writer
}

var (
	_ Observer   = (*LogSink)(nil)
	_ KindFilter = (*LogSink)(nil)
)

// NewLogSink wraps w.
func NewLogSink(w io.Writer) *LogSink { return &LogSink{w: w} }

// Kinds implements KindFilter: the sink prints snapshots, not events.
func (s *LogSink) Kinds() []report.Kind { return []report.Kind{} }

// RunStart implements Observer.
func (s *LogSink) RunStart(m Meta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "obs: run start: %d nodes, scheme %s, seed %d, %v span\n",
		m.Nodes, m.Scheme, m.Seed, time.Duration(m.DurationSeconds*float64(time.Second)))
}

// Event implements Observer; never called thanks to Kinds.
func (s *LogSink) Event(report.Event) {}

// Heartbeat implements Observer.
func (s *LogSink) Heartbeat(snap Snapshot) { s.line("heartbeat", snap) }

// RunEnd implements Observer.
func (s *LogSink) RunEnd(snap Snapshot) { s.line("run end", snap) }

func (s *LogSink) line(label string, snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "obs: %s: sim %v / wall %v | %.0f sim-s/s | %.0f ev/s |",
		label,
		time.Duration(snap.SimSeconds*float64(time.Second)).Round(time.Second),
		time.Duration(snap.WallSeconds*float64(time.Second)).Round(10*time.Millisecond),
		snap.SimPerWallSec, snap.EventsPerWallSec)
	sum := snap.PhaseSum()
	for _, p := range snap.Phases {
		share := 0.0
		if sum > 0 {
			share = 100 * p.Seconds / sum
		}
		fmt.Fprintf(s.w, " %s %.0f%%", p.Name, share)
	}
	fmt.Fprintln(s.w)
}
