package primitives

// Selection primitives evaluate a predicate over a column and append the
// positions of qualifying tuples to res, returning the number of matches.
// res must have capacity for n entries. When sel is non-nil, only the first
// n positions listed in sel are inspected, and the emitted positions are a
// subsequence of sel — so selection vectors stay strictly ascending and
// selections compose (conjunctions are chained select_* calls).
//
// The emit pattern "res[k] = pos; k += bool2int(match)" is branch-free:
// every candidate is written unconditionally and the write cursor advances
// only on a match. This is the selection analogue of the patched
// decompression loop in Figure 3 of the paper — the data-dependent branch
// is converted into data flow so the CPU pipeline never mispredicts.

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- int64 column vs constant ---

// SelectLTInt64ColVal emits positions where col[i] < val.
func SelectLTInt64ColVal(res []int32, col []int64, val int64, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			res[k] = int32(i)
			k += b2i(col[i] < val)
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[k] = s
			k += b2i(col[s] < val)
		}
	}
	return k
}

// SelectLEInt64ColVal emits positions where col[i] <= val.
func SelectLEInt64ColVal(res []int32, col []int64, val int64, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			res[k] = int32(i)
			k += b2i(col[i] <= val)
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[k] = s
			k += b2i(col[s] <= val)
		}
	}
	return k
}

// SelectGTInt64ColVal emits positions where col[i] > val.
func SelectGTInt64ColVal(res []int32, col []int64, val int64, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			res[k] = int32(i)
			k += b2i(col[i] > val)
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[k] = s
			k += b2i(col[s] > val)
		}
	}
	return k
}

// SelectGEInt64ColVal emits positions where col[i] >= val.
func SelectGEInt64ColVal(res []int32, col []int64, val int64, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			res[k] = int32(i)
			k += b2i(col[i] >= val)
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[k] = s
			k += b2i(col[s] >= val)
		}
	}
	return k
}

// SelectEQInt64ColVal emits positions where col[i] == val.
func SelectEQInt64ColVal(res []int32, col []int64, val int64, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			res[k] = int32(i)
			k += b2i(col[i] == val)
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[k] = s
			k += b2i(col[s] == val)
		}
	}
	return k
}

// SelectNEInt64ColVal emits positions where col[i] != val.
func SelectNEInt64ColVal(res []int32, col []int64, val int64, sel []int32, n int) int {
	k := 0
	if sel == nil {
		for i := 0; i < n; i++ {
			res[k] = int32(i)
			k += b2i(col[i] != val)
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			res[k] = s
			k += b2i(col[s] != val)
		}
	}
	return k
}
