package primitives

import (
	"reflect"
	"testing"
)

func TestAggrGrouped(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	gids := []int32{0, 1, 0, 1}
	accs := make([]float64, 2)
	AggrSumFloat64ColGrouped(accs, vals, gids, nil, 4)
	if !reflect.DeepEqual(accs, []float64{4, 6}) {
		t.Errorf("grouped sum flt: %v", accs)
	}
	accs = make([]float64, 2)
	AggrSumFloat64ColGrouped(accs, vals, gids, []int32{0, 1}, 2)
	if !reflect.DeepEqual(accs, []float64{1, 2}) {
		t.Errorf("grouped sum flt selective: %v", accs)
	}

	ivals := []int64{10, 20, 30, 40}
	iaccs := make([]int64, 2)
	AggrSumInt64ColGrouped(iaccs, ivals, gids, nil, 4)
	if !reflect.DeepEqual(iaccs, []int64{40, 60}) {
		t.Errorf("grouped sum int: %v", iaccs)
	}
	iaccs = make([]int64, 2)
	AggrSumInt64ColGrouped(iaccs, ivals, gids, []int32{3}, 1)
	if !reflect.DeepEqual(iaccs, []int64{0, 40}) {
		t.Errorf("grouped sum int selective: %v", iaccs)
	}

	counts := make([]int64, 2)
	AggrCountGrouped(counts, gids, nil, 4)
	if !reflect.DeepEqual(counts, []int64{2, 2}) {
		t.Errorf("grouped count: %v", counts)
	}
	counts = make([]int64, 2)
	AggrCountGrouped(counts, gids, []int32{0, 2, 3}, 3)
	if !reflect.DeepEqual(counts, []int64{2, 1}) {
		t.Errorf("grouped count selective: %v", counts)
	}

	fmax := []float64{-1, -1}
	AggrMaxFloat64ColGrouped(fmax, vals, gids, nil, 4)
	if !reflect.DeepEqual(fmax, []float64{3, 4}) {
		t.Errorf("grouped max flt: %v", fmax)
	}
	fmax = []float64{-1, -1}
	AggrMaxFloat64ColGrouped(fmax, vals, gids, []int32{0}, 1)
	if !reflect.DeepEqual(fmax, []float64{1, -1}) {
		t.Errorf("grouped max flt selective: %v", fmax)
	}

	imin := []int64{1 << 62, 1 << 62}
	AggrMinInt64ColGrouped(imin, ivals, gids, nil, 4)
	if !reflect.DeepEqual(imin, []int64{10, 20}) {
		t.Errorf("grouped min int: %v", imin)
	}
	imin = []int64{1 << 62, 1 << 62}
	AggrMinInt64ColGrouped(imin, ivals, gids, []int32{2, 3}, 2)
	if !reflect.DeepEqual(imin, []int64{30, 40}) {
		t.Errorf("grouped min int selective: %v", imin)
	}
}
