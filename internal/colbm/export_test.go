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

// encodeChunk encodes the given values of the spec's type as one chunk,
// the way Build encodes each chunk of a column.
func encodeChunk(spec *ColumnSpec, i64 []int64, f64 []float64, u8 []uint8, str []string) ([]byte, error) {
	d := &columnData{i64: i64, f64: f64, u8: u8, str: str}
	var enc chunkEncoder
	return enc.encode(spec, d, 0, d.len(spec.Type))
}
