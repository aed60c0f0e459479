package colbm

import (
	"os"
	"testing"
)

// TestMain runs every test of the package, and of package colbm_test, with
// poisonRecycled on: each read buffer the manager recycles is overwritten
// with 0xA5 on the spot, so a reader that touches a chunk whose buffer was
// recycled under it reads garbage and fails the comparison it is part of.
func TestMain(m *testing.M) {
	poisonRecycled = true
	os.Exit(m.Run())
}
