package engine

import (
	"os"
	"testing"
)

// TestMain runs every test of the package with PoisonVectors on: each
// vector a context hands out is full of garbage, so an operator or
// expression reading a position it did not write fails the oracle and
// reference tests instead of passing on a zero or stale value.
func TestMain(m *testing.M) {
	PoisonVectors = true
	os.Exit(m.Run())
}
