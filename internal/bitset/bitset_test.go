package bitset

import "testing"

func TestSetAddHasRemove(t *testing.T) {
	var s Set
	if s.Has(0) || s.Has(1000) {
		t.Fatal("empty set reports a bit")
	}
	for _, i := range []int{0, 63, 64, 200} {
		s.Add(i)
	}
	if len(s) != 4 {
		t.Errorf("words = %d, want 4 (grown to bit 200 only)", len(s))
	}
	for i := 0; i < 300; i++ {
		want := i == 0 || i == 63 || i == 64 || i == 200
		if s.Has(i) != want {
			t.Errorf("Has(%d) = %v, want %v", i, s.Has(i), want)
		}
	}
	s.Remove(63)
	s.Remove(5000) // past the end: no-op
	if s.Has(63) || !s.Has(64) || !s.Has(0) {
		t.Error("Remove cleared the wrong bits")
	}
}
