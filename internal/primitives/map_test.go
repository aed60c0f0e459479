package primitives

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMapFloat64ColCol(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{4, 3, 2, 1}
	res := make([]float64, 4)

	MapAddFloat64ColCol(res, a, b, nil, 4)
	if !reflect.DeepEqual(res, []float64{5, 5, 5, 5}) {
		t.Errorf("add: %v", res)
	}
	MapSubFloat64ColCol(res, a, b, nil, 4)
	if !reflect.DeepEqual(res, []float64{-3, -1, 1, 3}) {
		t.Errorf("sub: %v", res)
	}
	MapMulFloat64ColCol(res, a, b, nil, 4)
	if !reflect.DeepEqual(res, []float64{4, 6, 6, 4}) {
		t.Errorf("mul: %v", res)
	}
	MapDivFloat64ColCol(res, a, b, nil, 4)
	if !reflect.DeepEqual(res, []float64{0.25, 2.0 / 3.0, 1.5, 4}) {
		t.Errorf("div: %v", res)
	}
}

func TestMapFloat64Selective(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	res := []float64{-1, -1, -1, -1}
	MapAddFloat64ColCol(res, a, b, []int32{1, 3}, 2)
	if res[0] != -1 || res[2] != -1 {
		t.Error("selective map touched unselected positions")
	}
	if res[1] != 22 || res[3] != 44 {
		t.Errorf("selective add: %v", res)
	}
}

func TestMapInt64(t *testing.T) {
	a := []int64{1, 2, 3}
	b := []int64{7, 5, 3}
	res := make([]int64, 3)
	MapAddInt64ColCol(res, a, b, nil, 3)
	if !reflect.DeepEqual(res, []int64{8, 7, 6}) {
		t.Errorf("add: %v", res)
	}
	MapSubInt64ColCol(res, b, a, nil, 3)
	if !reflect.DeepEqual(res, []int64{6, 3, 0}) {
		t.Errorf("sub: %v", res)
	}
	MapMulInt64ColCol(res, a, b, nil, 3)
	if !reflect.DeepEqual(res, []int64{7, 10, 9}) {
		t.Errorf("mul: %v", res)
	}
	MapMaxInt64ColCol(res, a, b, nil, 3)
	if !reflect.DeepEqual(res, []int64{7, 5, 3}) {
		t.Errorf("max: %v", res)
	}
	MapMinInt64ColCol(res, a, b, nil, 3)
	if !reflect.DeepEqual(res, []int64{1, 2, 3}) {
		t.Errorf("min: %v", res)
	}
	// Selective max (used by the BM25 outer-join docid reconciliation).
	res = []int64{0, 0, 0}
	MapMaxInt64ColCol(res, a, b, []int32{1}, 1)
	if res[0] != 0 || res[1] != 5 {
		t.Errorf("selective max: %v", res)
	}
	MapMinInt64ColCol(res, a, b, []int32{2}, 1)
	if res[2] != 3 {
		t.Errorf("selective min: %v", res)
	}
}

func TestMapLog(t *testing.T) {
	a := []float64{1, math.E, math.E * math.E}
	res := make([]float64, 3)
	MapLogFloat64Col(res, a, nil, 3)
	for i, want := range []float64{0, 1, 2} {
		if math.Abs(res[i]-want) > 1e-12 {
			t.Errorf("log[%d] = %v, want %v", i, res[i], want)
		}
	}
	res2 := []float64{-1}
	MapLogFloat64Col(res2, []float64{1}, []int32{0}, 1)
	if res2[0] != 0 {
		t.Errorf("selective log: %v", res2[0])
	}
}

func TestMapConversions(t *testing.T) {
	f := make([]float64, 3)
	MapInt64ToFloat64(f, []int64{1, -2, 3}, nil, 3)
	if !reflect.DeepEqual(f, []float64{1, -2, 3}) {
		t.Errorf("int->flt: %v", f)
	}
	MapUInt8ToFloat64(f[:2], []uint8{0, 255}, nil, 2)
	if f[0] != 0 || f[1] != 255 {
		t.Errorf("u8->flt: %v", f[:2])
	}
	// Selective conversion variants.
	f3 := []float64{-1, -1, -1}
	MapInt64ToFloat64(f3, []int64{9, 8, 7}, []int32{1}, 1)
	if f3[0] != -1 || f3[1] != 8 {
		t.Errorf("selective int->flt: %v", f3)
	}
	MapUInt8ToFloat64(f3, []uint8{5, 6, 7}, []int32{2}, 1)
	if f3[2] != 7 {
		t.Errorf("selective u8->flt: %v", f3)
	}
}

// Property: dense and selective variants agree wherever the selection is
// the identity.
func TestMapDenseSelectiveAgreeProperty(t *testing.T) {
	prop := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		dense := make([]float64, n)
		MapMulFloat64ColCol(dense, a[:n], b[:n], nil, n)
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
		selective := make([]float64, n)
		MapMulFloat64ColCol(selective, a[:n], b[:n], sel, n)
		for i := 0; i < n; i++ {
			d, s := dense[i], selective[i]
			if d != s && !(math.IsNaN(d) && math.IsNaN(s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
