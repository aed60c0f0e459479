package primitives

import "math"

// Map primitives compute res[i] = f(args[i]) for every active position.
// When sel is non-nil the primitive computes only the selected positions
// (writing results at the *selected* positions, keeping res aligned with
// its inputs); dense variants process 0..n-1.
//
// Following the X100 naming convention, the suffix encodes the argument
// shapes: Col is a vector argument. For example MapMulFloat64ColCol is
// "multiply two float64 columns".

// --- float64 arithmetic, col (+|-|*|/) col ---

// MapAddFloat64ColCol computes res[i] = a[i] + b[i].
func MapAddFloat64ColCol(res, a, b []float64, sel []int32, n int) {
	if sel == nil {
		_ = res[:n]
		for i := 0; i < n; i++ {
			res[i] = a[i] + b[i]
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = a[s] + b[s]
		}
	}
}

// MapSubFloat64ColCol computes res[i] = a[i] - b[i].
func MapSubFloat64ColCol(res, a, b []float64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			res[i] = a[i] - b[i]
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = a[s] - b[s]
		}
	}
}

// MapMulFloat64ColCol computes res[i] = a[i] * b[i].
func MapMulFloat64ColCol(res, a, b []float64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			res[i] = a[i] * b[i]
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = a[s] * b[s]
		}
	}
}

// MapDivFloat64ColCol computes res[i] = a[i] / b[i].
func MapDivFloat64ColCol(res, a, b []float64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			res[i] = a[i] / b[i]
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = a[s] / b[s]
		}
	}
}

// --- int64 arithmetic ---

// MapAddInt64ColCol computes res[i] = a[i] + b[i].
func MapAddInt64ColCol(res, a, b []int64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			res[i] = a[i] + b[i]
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = a[s] + b[s]
		}
	}
}

// MapSubInt64ColCol computes res[i] = a[i] - b[i].
func MapSubInt64ColCol(res, a, b []int64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			res[i] = a[i] - b[i]
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = a[s] - b[s]
		}
	}
}

// MapMulInt64ColCol computes res[i] = a[i] * b[i].
func MapMulInt64ColCol(res, a, b []int64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			res[i] = a[i] * b[i]
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = a[s] * b[s]
		}
	}
}

// MapMaxInt64ColCol computes res[i] = max(a[i], b[i]); the BM25 query plan
// uses this to pick the defined docid from a merge-outer-join's two sides
// (D.docid = MAX(TD1.docid, TD2.docid) in the paper's plan).
func MapMaxInt64ColCol(res, a, b []int64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			x, y := a[i], b[i]
			if y > x {
				x = y
			}
			res[i] = x
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			x, y := a[s], b[s]
			if y > x {
				x = y
			}
			res[s] = x
		}
	}
}

// MapMinInt64ColCol computes res[i] = min(a[i], b[i]).
func MapMinInt64ColCol(res, a, b []int64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			x, y := a[i], b[i]
			if y < x {
				x = y
			}
			res[i] = x
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			x, y := a[s], b[s]
			if y < x {
				x = y
			}
			res[s] = x
		}
	}
}

// --- transcendental ---

// MapLogFloat64Col computes res[i] = ln(a[i]); BM25's idf term.
func MapLogFloat64Col(res, a []float64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			res[i] = math.Log(a[i])
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = math.Log(a[s])
		}
	}
}

// --- type conversions ---

// MapInt64ToFloat64 widens an int64 column to float64.
func MapInt64ToFloat64(res []float64, a []int64, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			res[i] = float64(a[i])
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = float64(a[s])
		}
	}
}

// MapUInt8ToFloat64 widens a quantized uint8 score column to float64.
func MapUInt8ToFloat64(res []float64, a []uint8, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			res[i] = float64(a[i])
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[s] = float64(a[s])
		}
	}
}
