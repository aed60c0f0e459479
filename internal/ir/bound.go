package ir

import (
	"slices"
	"sync"

	"repro/internal/colbm"
	"repro/internal/engine"
	"repro/internal/vector"
)

// termBound is one term's quantized-score bound: max[j] is the largest
// qscore of the term's rows in TD stride first+j (first being the stride of
// its first row), strides of engine.BoundStride rows counted from TD row
// 0, and top is the largest of them.
type termBound struct {
	max []float64
	top float64
}

// StrideMaxima caches the termBounds of one segment, by the term's first
// TD row. Segments are immutable, so an entry holds for the life of the
// segment and is never invalidated: the storage layer keeps one cache per
// decoded manifest and hands it to every Index it opens from that
// manifest (RestoreIndex), so the next generation starts with the maxima
// the last one computed. Index holds the cache behind a pointer, so copies
// of an Index share it.
type StrideMaxima struct {
	mu    sync.Mutex
	terms map[int]*termBound
}

// NewStrideMaxima returns an empty cache.
func NewStrideMaxima() *StrideMaxima { return &StrideMaxima{terms: map[int]*termBound{}} }

// qscoreBound returns ti's bound, read once through a cursor over the
// qscore column on first use.
func (ix *Index) qscoreBound(ti TermInfo) (*termBound, error) {
	m := ix.maxima
	m.mu.Lock()
	tb := m.terms[ti.Start]
	m.mu.Unlock()
	if tb != nil {
		return tb, nil
	}
	col, err := ix.TD.Column(ColQScore)
	if err != nil {
		return nil, err
	}
	tb = &termBound{}
	if ti.End > ti.Start {
		first := ti.Start / engine.BoundStride
		tb.max = make([]float64, (ti.End-1)/engine.BoundStride-first+1)
		cur, v := colbm.NewCursor(col), vector.New(vector.UInt8, vector.DefaultSize)
		for pos := ti.Start; pos < ti.End; pos += vector.DefaultSize {
			n := min(vector.DefaultSize, ti.End-pos)
			if err := cur.Read(v, pos, n); err != nil {
				return nil, err
			}
			for i, q := range v.U8[:n] {
				j := (pos+i)/engine.BoundStride - first
				tb.max[j] = max(tb.max[j], float64(q))
			}
		}
		tb.top = slices.Max(tb.max)
	}
	m.mu.Lock()
	if prev := m.terms[ti.Start]; prev != nil {
		tb = prev
	} else {
		m.terms[ti.Start] = tb
	}
	m.mu.Unlock()
	return tb, nil
}

// bindBounds gives each term's scan of a BM25TCMQ8 plan over baked
// columns its bound: the term's per-stride qscore maxima, the sum of the
// other terms' largest qscores as the rest of the score, and the floor
// of the plan's TopN. The score is that sum of quantized integers, exact
// in float64, so a stride whose maximum plus the rest does not beat the
// floor holds no row the TopN can take.
func (s *segSearcher) bindBounds(scans []*engine.Scan, infos []TermInfo, floor *float64) error {
	var buf [8]*termBound
	tbs := buf[:0]
	total := 0.0
	for _, ti := range infos {
		tb, err := s.ix.qscoreBound(ti)
		if err != nil {
			return err
		}
		tbs = append(tbs, tb)
		total += tb.top
	}
	for i, sc := range scans {
		b := engine.Bound{Col: ColQScore, Max: tbs[i].max, Rest: total - tbs[i].top, Floor: floor}
		if err := sc.SetBound(b); err != nil {
			return err
		}
	}
	return nil
}
