package routing

import (
	"testing"
	"unsafe"
)

// TestMemoFitsItsSizeClass pins the Memo at 128 bytes, a size class it
// fills exactly with the floor column and its stamp: every open contact
// direction that routes holds one, so a field past the class would cost
// crowd-scale runs an eighth more memo heap (the next class is 144 bytes).
func TestMemoFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Memo{}); size > 128 {
		t.Fatalf("Memo is %d bytes, past the 128-byte size class", size)
	}
}
