package core

import (
	"testing"

	"dtnsim/internal/interest"
)

// TestRemoveContactNilsVacatedSlot guards the swap-remove that takes a
// torn-down contact's far end off a node's peer-table list: the vacated
// tail slot must be nilled, or the backing array — reused for the whole
// run — pins a table the node is no longer connected to.
func TestRemoveContactNilsVacatedSlot(t *testing.T) {
	t0, t1, t2 := new(interest.Table), new(interest.Table), new(interest.Table)
	list := []*interest.Table{t0, t1, t2}

	got := removeTable(list, t1)
	if len(got) != 2 || got[0] != t0 || got[1] != t2 {
		t.Fatalf("after removing middle: got %v, want [t0 t2]", got)
	}
	// The vacated slot sits just past the returned length in the shared
	// backing array.
	if tail := got[:3][2]; tail != nil {
		t.Fatalf("vacated tail slot still pins a table; want nil")
	}

	got = removeTable(got, t2)
	if len(got) != 1 || got[0] != t0 {
		t.Fatalf("after removing last: got %v, want [t0]", got)
	}
	if tail := got[:2][1]; tail != nil {
		t.Fatalf("tail-removal slot still pins a table; want nil")
	}

	if again := removeTable(got, t1); len(again) != 1 || again[0] != t0 {
		t.Fatalf("removing an absent table mutated the list: %v", again)
	}
}
