package core

import "testing"

// TestRemoveContactNilsVacatedSlot guards the peersOf swap-remove: the
// vacated tail slot must be nilled, or the backing array — reused for the
// whole run — pins the dead contact and its transfer queue forever, the
// same leak class the contact queue's pop once had.
func TestRemoveContactNilsVacatedSlot(t *testing.T) {
	c0, c1, c2 := &contact{}, &contact{}, &contact{}
	list := []*contact{c0, c1, c2}

	got := removeContact(list, c1)
	if len(got) != 2 || got[0] != c0 || got[1] != c2 {
		t.Fatalf("after removing middle: got %v, want [c0 c2]", got)
	}
	// The vacated slot sits just past the returned length in the shared
	// backing array.
	if tail := got[:3][2]; tail != nil {
		t.Fatalf("vacated tail slot still pins a contact; want nil")
	}

	got = removeContact(got, c2)
	if len(got) != 1 || got[0] != c0 {
		t.Fatalf("after removing last: got %v, want [c0]", got)
	}
	if tail := got[:2][1]; tail != nil {
		t.Fatalf("tail-removal slot still pins a contact; want nil")
	}

	if again := removeContact(got, c1); len(again) != 1 || again[0] != c0 {
		t.Fatalf("removing an absent contact mutated the list: %v", again)
	}
}
