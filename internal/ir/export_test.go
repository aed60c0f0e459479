package ir

import (
	"os"
	"testing"

	"repro/internal/engine"
)

// TestMain runs every test of the package with engine.PoisonVectors on:
// each vector a searcher's context hands out is full of garbage, so a plan
// reading a recycled vector before writing it changes a ranking the oracle
// and equivalence tests compare DocID and Score for, bit for bit.
func TestMain(m *testing.M) {
	engine.PoisonVectors = true
	os.Exit(m.Run())
}
