package trace

import (
	"strings"
	"testing"
)

// FuzzParseConn feeds arbitrary text to the connectivity-trace parser; it
// must never panic, and any schedule it accepts must satisfy the schedule
// invariants (normalised pairs, positive durations, no negative start).
func FuzzParseConn(f *testing.F) {
	f.Add("10.0 CONN 1 2 up\n20.0 CONN 1 2 down\n")
	f.Add("# comment\n\n5.5 CONN 3 4 up\n")
	f.Add("bogus line\n")
	f.Add("10.0 CONN 1 2 down\n")
	f.Add("1e300 CONN 0 1 up\n")
	f.Add("NaN CONN 0 1 up\n")
	f.Add("-50 CONN 0 1 up\n")

	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseConn(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, c := range s.Contacts() {
			if c.A >= c.B {
				t.Fatalf("unnormalised pair %v-%v", c.A, c.B)
			}
			if c.End <= c.Start {
				t.Fatalf("non-positive contact duration: %+v", c)
			}
			if c.Start < 0 {
				t.Fatalf("contact starts before time zero: %+v", c)
			}
		}
	})
}
