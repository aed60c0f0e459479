package primitives

// Aggregation primitives update per-group accumulators. They take a gids
// vector holding, for each active tuple, the index of its group's
// accumulator slot; they are the inner loop of the hash-aggregation
// operator (Figure 1's "hash table maintenance" plus aggr_sum_flt_col).

// AggrSumFloat64ColGrouped adds each active value of a into
// accs[gids[pos]]. gids is aligned with a (indexed by position, like any
// other column).
func AggrSumFloat64ColGrouped(accs []float64, a []float64, gids []int32, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			accs[gids[i]] += a[i]
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			accs[gids[s]] += a[s]
		}
	}
}

// AggrSumInt64ColGrouped adds each active value of a into accs[gids[pos]].
func AggrSumInt64ColGrouped(accs []int64, a []int64, gids []int32, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			accs[gids[i]] += a[i]
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			accs[gids[s]] += a[s]
		}
	}
}

// AggrCountGrouped increments accs[gids[pos]] for each active tuple.
func AggrCountGrouped(accs []int64, gids []int32, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			accs[gids[i]]++
		}
	} else {
		for i := 0; i < n; i++ {
			accs[gids[sel[i]]]++
		}
	}
}

// AggrMaxFloat64ColGrouped folds max into accs[gids[pos]].
func AggrMaxFloat64ColGrouped(accs []float64, a []float64, gids []int32, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			g := gids[i]
			if a[i] > accs[g] {
				accs[g] = a[i]
			}
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			g := gids[s]
			if a[s] > accs[g] {
				accs[g] = a[s]
			}
		}
	}
}

// AggrMinInt64ColGrouped folds min into accs[gids[pos]].
func AggrMinInt64ColGrouped(accs []int64, a []int64, gids []int32, sel []int32, n int) {
	if sel == nil {
		for i := 0; i < n; i++ {
			g := gids[i]
			if a[i] < accs[g] {
				accs[g] = a[i]
			}
		}
	} else {
		for i := 0; i < n; i++ {
			s := sel[i]
			g := gids[s]
			if a[s] < accs[g] {
				accs[g] = a[s]
			}
		}
	}
}
