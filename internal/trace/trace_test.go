package trace

import (
	"strings"
	"testing"
	"time"

	"dtnsim/internal/ident"
)

func mustSchedule(t *testing.T, contacts []Contact) *Schedule {
	t.Helper()
	s, err := NewSchedule(contacts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewScheduleValidation(t *testing.T) {
	cases := []Contact{
		{A: 1, B: 1, Start: 0, End: time.Second},               // self-contact
		{A: -1, B: 2, Start: 0, End: time.Second},              // negative id
		{A: 1, B: 2, Start: time.Second, End: time.Second},     // zero length
		{A: 1, B: 2, Start: 2 * time.Second, End: time.Second}, // reversed
	}
	for i, c := range cases {
		if _, err := NewSchedule([]Contact{c}); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func TestScheduleNormalisesAndSorts(t *testing.T) {
	s := mustSchedule(t, []Contact{
		{A: 5, B: 2, Start: 10 * time.Second, End: 20 * time.Second},
		{A: 1, B: 3, Start: 5 * time.Second, End: 8 * time.Second},
	})
	cs := s.Contacts()
	if cs[0].Start != 5*time.Second {
		t.Error("not sorted by start")
	}
	if cs[1].A != 2 || cs[1].B != 5 {
		t.Error("pair not normalised to (lo, hi)")
	}
	if s.MaxNode() != 5 {
		t.Errorf("MaxNode = %v", s.MaxNode())
	}
	if s.Duration() != 20*time.Second {
		t.Errorf("Duration = %v", s.Duration())
	}
}

// TestActiveAt pins the cursor's active set: at time t it holds exactly the
// contacts with Start <= t < End.
func TestActiveAt(t *testing.T) {
	s := mustSchedule(t, []Contact{
		{A: 1, B: 2, Start: 10 * time.Second, End: 20 * time.Second},
		{A: 3, B: 4, Start: 15 * time.Second, End: 25 * time.Second},
	})
	c := NewCursor(s)
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{{5 * time.Second, 0}, {17 * time.Second, 2}, {20 * time.Second, 1}} {
		c.AdvanceTo(tc.at)
		if got := len(c.active); got != tc.want {
			t.Errorf("active at %v = %v, want %d (end exclusive)", tc.at, c.active, tc.want)
		}
	}
}

func TestCursorTransitions(t *testing.T) {
	s := mustSchedule(t, []Contact{
		{A: 1, B: 2, Start: 10 * time.Second, End: 20 * time.Second},
		{A: 3, B: 4, Start: 12 * time.Second, End: 30 * time.Second},
	})
	c := NewCursor(s)
	up, down := c.AdvanceTo(11 * time.Second)
	if len(up) != 1 || up[0].A != 1 || len(down) != 0 {
		t.Fatalf("t=11: up=%v down=%v", up, down)
	}
	up, down = c.AdvanceTo(15 * time.Second)
	if len(up) != 1 || up[0].A != 3 || len(down) != 0 {
		t.Fatalf("t=15: up=%v down=%v", up, down)
	}
	if len(c.active) != 2 {
		t.Fatalf("active = %v", c.active)
	}
	up, down = c.AdvanceTo(25 * time.Second)
	if len(up) != 0 || len(down) != 1 || down[0].A != 1 {
		t.Fatalf("t=25: up=%v down=%v", up, down)
	}
	_, down = c.AdvanceTo(time.Minute)
	if len(down) != 1 {
		t.Fatalf("final down = %v", down)
	}
	if len(c.active) != 0 {
		t.Error("contacts remain after trace end")
	}
}

func TestCursorSkipsSubStepContacts(t *testing.T) {
	s := mustSchedule(t, []Contact{
		{A: 1, B: 2, Start: 10 * time.Second, End: 11 * time.Second},
	})
	c := NewCursor(s)
	// Stepping straight past the whole interval: no phantom contact.
	up, down := c.AdvanceTo(30 * time.Second)
	if len(up) != 0 || len(down) != 0 {
		t.Errorf("sub-step contact surfaced: up=%v down=%v", up, down)
	}
}

func TestParseConnRoundTrip(t *testing.T) {
	input := `
# comment line
10.0 CONN 1 2 up
12.0 CONN 3 4 up
20.0 CONN 1 2 down
`
	s, err := ParseConn(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	cs := s.Contacts()
	if len(cs) != 2 {
		t.Fatalf("contacts = %v", cs)
	}
	if cs[0].A != 1 || cs[0].B != 2 || cs[0].Start != 10*time.Second || cs[0].End != 20*time.Second {
		t.Errorf("first contact = %+v", cs[0])
	}
	// The 3-4 contact never closed: it ends at last-seen + 1 s.
	if cs[1].End != 21*time.Second {
		t.Errorf("unclosed contact end = %v, want 21s", cs[1].End)
	}
}

func TestParseConnErrors(t *testing.T) {
	cases := []string{
		"10.0 LINK 1 2 up",
		"abc CONN 1 2 up",
		"10.0 CONN x 2 up",
		"10.0 CONN 1 y up",
		"10.0 CONN 1 2 sideways",
		"10.0 CONN 1 2",
		// Times that are not finite, negative, or past a Duration's range
		// must not wrap around into a contact at some other instant.
		"1e300 CONN 0 1 up",
		"NaN CONN 0 1 up",
		"+Inf CONN 0 1 up",
		"-50 CONN 0 1 up",
		"9223372036 CONN 0 1 up",
	}
	for i, c := range cases {
		_, err := ParseConn(strings.NewReader("# header\n" + c))
		if err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		} else if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("case %d: error %q does not name line 2", i, err)
		}
	}
}

func TestParseConnIgnoresUnmatchedDown(t *testing.T) {
	s, err := ParseConn(strings.NewReader("5.0 CONN 1 2 down\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("contacts = %d, want 0", s.Len())
	}
}

func TestScheduleDeterministicOrder(t *testing.T) {
	contacts := []Contact{
		{A: 9, B: 1, Start: 10 * time.Second, End: 40 * time.Second},
		{A: 2, B: 7, Start: 10 * time.Second, End: 40 * time.Second},
		{A: 3, B: 4, Start: 10 * time.Second, End: 40 * time.Second},
	}
	s := mustSchedule(t, contacts)
	c := NewCursor(s)
	up, _ := c.AdvanceTo(10 * time.Second)
	var prev ident.NodeID = -1
	for _, ct := range up {
		if ct.A < prev {
			t.Fatalf("ups not ordered: %v", up)
		}
		prev = ct.A
	}
}
