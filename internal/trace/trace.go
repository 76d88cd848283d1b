// Package trace parses and represents external contact traces, letting the
// engine replay real-world connectivity (Haggle/Infocom-style datasets, or
// traces recorded from earlier runs via obs.ConnTraceWriter) instead of
// synthetic mobility. This is the standard methodology split in DTN
// research: synthetic Random Waypoint for parameter sweeps, recorded
// contact traces for realism checks.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"dtnsim/internal/ident"
)

// Contact is one connectivity interval between two nodes.
type Contact struct {
	A, B  ident.NodeID
	Start time.Duration
	End   time.Duration
}

// Schedule is a full contact trace: every pairwise connectivity interval,
// sorted by start time.
type Schedule struct {
	contacts []Contact
	maxNode  ident.NodeID
}

// NewSchedule builds a schedule from contact intervals, validating and
// sorting them.
func NewSchedule(contacts []Contact) (*Schedule, error) {
	s := &Schedule{contacts: make([]Contact, len(contacts))}
	copy(s.contacts, contacts)
	for i, c := range s.contacts {
		if c.A == c.B {
			return nil, fmt.Errorf("trace: contact %d connects %v to itself", i, c.A)
		}
		if c.A < 0 || c.B < 0 {
			return nil, fmt.Errorf("trace: contact %d has a negative node id", i)
		}
		if c.End <= c.Start {
			return nil, fmt.Errorf("trace: contact %d ends (%v) before it starts (%v)", i, c.End, c.Start)
		}
		if c.A > c.B {
			s.contacts[i].A, s.contacts[i].B = c.B, c.A
		}
		if s.contacts[i].B > s.maxNode {
			s.maxNode = s.contacts[i].B
		}
	}
	sort.Slice(s.contacts, func(i, j int) bool {
		if s.contacts[i].Start != s.contacts[j].Start {
			return s.contacts[i].Start < s.contacts[j].Start
		}
		if s.contacts[i].A != s.contacts[j].A {
			return s.contacts[i].A < s.contacts[j].A
		}
		return s.contacts[i].B < s.contacts[j].B
	})
	return s, nil
}

// Len returns the number of contact intervals.
func (s *Schedule) Len() int { return len(s.contacts) }

// Contacts returns the sorted intervals (a copy).
func (s *Schedule) Contacts() []Contact {
	out := make([]Contact, len(s.contacts))
	copy(out, s.contacts)
	return out
}

// MaxNode returns the highest node ID referenced; engines need at least
// MaxNode+1 nodes to replay the trace.
func (s *Schedule) MaxNode() ident.NodeID { return s.maxNode }

// Duration returns the end of the last contact — the natural replay length.
func (s *Schedule) Duration() time.Duration {
	var end time.Duration
	for _, c := range s.contacts {
		if c.End > end {
			end = c.End
		}
	}
	return end
}

// Cursor walks the schedule in time order, maintaining the active contact
// set incrementally; one pass over the trace per replay.
type Cursor struct {
	sched  *Schedule
	next   int
	active map[[2]ident.NodeID]Contact
}

// NewCursor starts a replay at time zero.
func NewCursor(s *Schedule) *Cursor {
	return &Cursor{sched: s, active: make(map[[2]ident.NodeID]Contact)}
}

// AdvanceTo moves the cursor to time t and returns the pairs that came up
// and went down since the previous position, in deterministic order.
func (c *Cursor) AdvanceTo(t time.Duration) (up, down []Contact) {
	// Close active contacts that ended.
	var closed [][2]ident.NodeID
	for key, ct := range c.active {
		if ct.End <= t {
			closed = append(closed, key)
			down = append(down, ct)
		}
	}
	for _, key := range closed {
		delete(c.active, key)
	}
	// Open contacts that started.
	for c.next < len(c.sched.contacts) && c.sched.contacts[c.next].Start <= t {
		ct := c.sched.contacts[c.next]
		c.next++
		if ct.End <= t {
			continue // the whole interval fits between steps; skip
		}
		key := [2]ident.NodeID{ct.A, ct.B}
		if _, ok := c.active[key]; ok {
			continue
		}
		c.active[key] = ct
		up = append(up, ct)
	}
	sortContacts(up)
	sortContacts(down)
	return up, down
}

func sortContacts(cs []Contact) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].A != cs[j].A {
			return cs[i].A < cs[j].A
		}
		return cs[i].B < cs[j].B
	})
}

// maxConnSeconds bounds trace timestamps so every instant, and the
// one-second close of a contact still up at the end of the input, fits a
// Duration.
const maxConnSeconds = math.MaxInt64/int64(time.Second) - 1

// ParseConn parses the ONE-style connectivity trace format that
// obs.ConnTraceWriter emits:
//
//	<seconds> CONN <a> <b> up|down
//
// Times must be finite, non-negative and within a Duration's range.
// Unmatched "down" lines are ignored; contacts still up at the end of the
// input are closed at the last timestamp seen plus one second.
func ParseConn(r io.Reader) (*Schedule, error) {
	scanner := bufio.NewScanner(r)
	open := make(map[[2]ident.NodeID]time.Duration)
	var contacts []Contact
	var last time.Duration
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 || fields[1] != "CONN" {
			return nil, fmt.Errorf("trace: line %d: want '<t> CONN <a> <b> up|down', got %q", lineNo, line)
		}
		secs, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time %q", lineNo, fields[0])
		}
		if !(secs >= 0 && secs <= float64(maxConnSeconds)) { // also rejects NaN
			return nil, fmt.Errorf("trace: line %d: time %q outside [0, %d] seconds", lineNo, fields[0], maxConnSeconds)
		}
		a, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad node %q", lineNo, fields[2])
		}
		b, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad node %q", lineNo, fields[3])
		}
		at := time.Duration(secs * float64(time.Second))
		if at > last {
			last = at
		}
		key := [2]ident.NodeID{ident.NodeID(a), ident.NodeID(b)}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		switch fields[4] {
		case "up":
			if _, ok := open[key]; !ok {
				open[key] = at
			}
		case "down":
			if start, ok := open[key]; ok {
				delete(open, key)
				if at > start {
					contacts = append(contacts, Contact{A: key[0], B: key[1], Start: start, End: at})
				}
			}
		default:
			return nil, fmt.Errorf("trace: line %d: bad state %q", lineNo, fields[4])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	for key, start := range open {
		contacts = append(contacts, Contact{A: key[0], B: key[1], Start: start, End: last + time.Second})
	}
	return NewSchedule(contacts)
}
