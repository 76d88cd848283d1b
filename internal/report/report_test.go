package report

import "testing"

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		ContactUp: "CONN_UP", ContactDown: "CONN_DOWN", MessageCreated: "CREATE",
		Relayed: "RELAY", Delivered: "DELIVER", TransferAborted: "ABORT",
		Payment: "PAY", TagAdded: "TAG", Kind(99): "UNKNOWN",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestAllKindsCoversEveryKind(t *testing.T) {
	kinds := AllKinds()
	seen := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		if k.String() == "UNKNOWN" {
			t.Errorf("AllKinds includes unknown kind %d", int(k))
		}
		if seen[k] {
			t.Errorf("AllKinds lists kind %v twice", k)
		}
		seen[k] = true
	}
	if !seen[ContactUp] || !seen[TagAdded] {
		t.Errorf("AllKinds misses declared kinds: %v", kinds)
	}
	// Declaration order, starting at the first kind.
	for i, k := range kinds {
		if int(k) != i+1 {
			t.Errorf("AllKinds[%d] = %d, want %d (declaration order)", i, int(k), i+1)
		}
	}
}
