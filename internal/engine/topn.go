package engine

import (
	"fmt"
	"math"
	"time"

	"repro/internal/vector"
)

// OrderSpec is one sort key: column name and direction.
type OrderSpec struct {
	Col  string
	Desc bool
}

func (o OrderSpec) String() string {
	if o.Desc {
		return o.Col + " DESC"
	}
	return o.Col + " ASC"
}

// TopN retains the N best rows under the given ordering, using a bounded
// heap so memory stays O(N) no matter how many candidate documents stream
// through — the top-k operator every ranked-retrieval plan ends with
// (TopN(..., [score DESC], 20) in the paper's BM25 query).
//
// Ordering columns may be Int64 or Float64; ties beyond the listed keys
// are broken by arrival order (first seen wins), making results
// deterministic for deterministic inputs.
//
// It works select-then-heap: once N rows are held, the worst one's first
// key is a threshold, one typed loop per input batch computes every row's
// first key and drops those below it, and only the survivors are compared
// on every key and may enter the heap. Retained rows live in slots, written
// in place, so nothing is allocated after Open (Sort's unbounded N aside,
// whose slots grow by doubling).
//
// After each input batch a full TopN publishes that threshold to its floor
// (Floor), from which the scans below it can skip what cannot beat it.
type TopN struct {
	base
	child Operator
	n     int
	order []OrderSpec

	orderIdx  []int
	orderType []vector.Type

	// Slot s holds a retained row: its direction-adjusted order keys
	// keys[s*len(order):], its arrival number seq[s] and its column values
	// at position s of vals.
	keys []float64
	seq  []int64
	vals []*vector.Vector
	// heap holds the slot ids of the retained rows, worst row first.
	heap []int32

	first   []float64 // per batch row: its first order key
	surv    []int32   // per batch: the rows not below the threshold
	cand    []float64 // the order keys of the row being compared
	arrived int64     // rows consumed so far
	floor   float64   // the published threshold: −∞ until n rows are held

	out     *vector.Batch
	vecSize int
	done    bool
	emitPos int
}

// NewTopN builds a top-n node.
func NewTopN(child Operator, n int, order []OrderSpec) *TopN {
	return &TopN{child: child, n: n, order: order, floor: math.Inf(-1)}
}

// Open binds the ordering columns.
func (t *TopN) Open(ctx *ExecContext) error {
	if err := t.child.Open(ctx); err != nil {
		return err
	}
	if t.n <= 0 {
		return fmt.Errorf("engine: TopN with n=%d", t.n)
	}
	in := t.child.Schema()
	t.schema = in
	t.orderIdx = t.orderIdx[:0]
	t.orderType = t.orderType[:0]
	for _, o := range t.order {
		i := in.Index(o.Col)
		if i < 0 {
			return fmt.Errorf("engine: unknown order column %q", o.Col)
		}
		typ := in[i].Type
		if typ != vector.Int64 && typ != vector.Float64 {
			return fmt.Errorf("engine: order column %q has unsupported type %v", o.Col, typ)
		}
		t.orderIdx = append(t.orderIdx, i)
		t.orderType = append(t.orderType, typ)
	}
	t.ctx, t.vecSize = ctx, ctx.VectorSize
	t.done = false
	t.emitPos = 0
	t.arrived = 0
	t.floor = math.Inf(-1)
	t.vals = make([]*vector.Vector, len(in))
	vecs := make([]*vector.Vector, len(in))
	for i, c := range in {
		vecs[i] = t.take(c.Type, t.vecSize)
	}
	t.out = &vector.Batch{Vecs: vecs}
	t.keys, t.seq, t.heap = nil, nil, nil
	t.growSlots(min(t.n, t.vecSize))
	t.first, t.surv = t.take(vector.Float64, t.vecSize).F64, t.take(vector.Int32, t.vecSize).I32
	t.cand = t.take(vector.Float64, len(t.order)).F64[:len(t.order)]
	return nil
}

// growSlots moves the retained rows to slot storage for capn rows, taken
// from the context; the storage it outgrew stays held until Close.
func (t *TopN) growSlots(capn int) {
	for c, col := range t.schema {
		grown := t.take(col.Type, capn)
		if old := t.vals[c]; old != nil {
			grown.CopyFrom(old)
		}
		grown.SetLen(capn)
		t.vals[c] = grown
	}
	nk := len(t.order)
	keys := t.take(vector.Float64, capn*nk).F64[:capn*nk]
	seq := t.take(vector.Int64, capn).I64[:capn]
	heap := t.take(vector.Int32, capn).I32[:len(t.heap):capn]
	copy(keys, t.keys)
	copy(seq, t.seq)
	copy(heap, t.heap)
	t.keys, t.seq, t.heap = keys, seq, heap
}

// Next drains the child on first call, then emits the retained rows in
// rank order.
func (t *TopN) Next() (*vector.Batch, error) {
	start := time.Now()
	if !t.done {
		if err := t.consume(); err != nil {
			return nil, err
		}
		// Heapsort in place: each pass moves the worst row left to the end,
		// so the slot ids end up best-first.
		for end := len(t.heap) - 1; end > 0; end-- {
			t.heap[0], t.heap[end] = t.heap[end], t.heap[0]
			t.siftDown(0, end)
		}
		t.done = true
	}
	if t.emitPos >= len(t.heap) {
		t.observe(start, nil)
		return nil, nil
	}
	n := min(len(t.heap)-t.emitPos, t.vecSize)
	idx := t.heap[t.emitPos : t.emitPos+n]
	for c, v := range t.out.Vecs {
		v.SetLen(n)
		gatherColumn(v, 0, t.vals[c], 0, idx)
	}
	t.emitPos += n
	t.out.Sel = nil
	t.out.N = n
	t.observe(start, t.out)
	return t.out, nil
}

func (t *TopN) consume() error {
	for {
		b, err := t.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		t.push(b)
	}
}

// push offers one batch: the select loop first, then the survivors one by
// one against the current worst row.
func (t *TopN) push(b *vector.Batch) {
	if len(t.first) < b.N {
		t.first, t.surv = t.take(vector.Float64, b.N).F64, t.take(vector.Int32, b.N).I32
	}
	thr := math.Inf(-1)
	if len(t.heap) == t.n {
		thr = t.slotKeys(t.heap[0])[0]
	}
	var m int
	col, first, surv := b.Vecs[t.orderIdx[0]], t.first[:b.N], t.surv[:b.N]
	if t.orderType[0] == vector.Int64 {
		m = selectKeys(first, surv, col.I64, b.Sel, t.order[0].Desc, thr)
	} else {
		m = selectKeys(first, surv, col.F64, b.Sel, t.order[0].Desc, thr)
	}
	for _, i := range surv[:m] {
		full := len(t.heap) == t.n
		// The threshold rises as the batch's survivors fill the heap: a
		// survivor already below it needs no more than this compare.
		if full && first[i] < t.slotKeys(t.heap[0])[0] {
			continue
		}
		pos := int(i)
		if b.Sel != nil {
			pos = int(b.Sel[i])
		}
		t.cand[0] = first[i]
		for k := 1; k < len(t.cand); k++ {
			t.cand[k] = t.key(b, k, pos)
		}
		seq := t.arrived + int64(i)
		if !full {
			if len(t.heap) == cap(t.heap) {
				t.growSlots(min(t.n, 2*cap(t.heap)))
			}
			s := int32(len(t.heap))
			t.heap = append(t.heap, s)
			t.store(s, b, pos, seq)
			t.siftUp(len(t.heap) - 1)
			continue
		}
		// A later arrival must beat the worst row on some key: a tie on
		// every key goes to the row already held.
		w := t.heap[0]
		if !lessKeys(t.slotKeys(w), t.cand) {
			continue
		}
		t.store(w, b, pos, seq)
		t.siftDown(0, len(t.heap))
	}
	t.arrived += int64(b.N)
	if len(t.heap) == t.n {
		t.floor = t.slotKeys(t.heap[0])[0]
	}
}

// Floor returns the cell the TopN publishes its threshold to, for a Bound
// of the scans below it: −∞ until n rows are held, then the first key of
// the worst held row, the value a later row must beat on that key (an
// equal row still wins on a later key or loses on arrival order). Only a
// descending first key has a floor; the cell is nil otherwise.
func (t *TopN) Floor() *float64 {
	if len(t.order) == 0 || !t.order[0].Desc {
		return nil
	}
	return &t.floor
}

// selectKeys is the select loop: it writes the direction-adjusted first key
// of each batch row to first (sel applied) and the rows whose key is not
// below thr to surv, returning how many there are. A row below thr ranks
// under the worst retained row on the first key already.
func selectKeys[T int64 | float64](first []float64, surv []int32, col []T, sel []int32, desc bool, thr float64) int {
	sign := -1.0
	if desc {
		sign = 1
	}
	m := 0
	for i := range first {
		p := i
		if sel != nil {
			p = int(sel[i])
		}
		k := sign * float64(col[p])
		first[i] = k
		surv[m] = int32(i)
		m += b2i(!(k < thr))
	}
	return m
}

// key returns order key k of the row at pos, direction-adjusted: larger is
// better.
func (t *TopN) key(b *vector.Batch, k, pos int) float64 {
	var v float64
	if t.orderType[k] == vector.Int64 {
		v = float64(b.Vecs[t.orderIdx[k]].I64[pos])
	} else {
		v = b.Vecs[t.orderIdx[k]].F64[pos]
	}
	if t.order[k].Desc {
		return v
	}
	return -v
}

// store writes the candidate row into slot s.
func (t *TopN) store(s int32, b *vector.Batch, pos int, seq int64) {
	copy(t.slotKeys(s), t.cand)
	t.seq[s] = seq
	for c, v := range b.Vecs {
		copyValue(t.vals[c], int(s), v, pos)
	}
}

func (t *TopN) slotKeys(s int32) []float64 {
	nk := len(t.order)
	return t.keys[int(s)*nk : int(s+1)*nk]
}

// lessKeys reports whether order keys a rank below b.
func lessKeys(a, b []float64) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// worse reports whether slot a ranks below slot b: lower keys, or equal keys
// and a later arrival.
func (t *TopN) worse(a, b int32) bool {
	ka, kb := t.slotKeys(a), t.slotKeys(b)
	for k := range ka {
		if ka[k] != kb[k] {
			return ka[k] < kb[k]
		}
	}
	return t.seq[a] > t.seq[b]
}

func (t *TopN) siftUp(i int) {
	h := t.heap
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores the heap order of h[:n] below position i.
func (t *TopN) siftDown(i, n int) {
	h := t.heap
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && t.worse(h[r], h[c]) {
			c = r
		}
		if !t.worse(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Close gives the slot storage and buffers back and closes the child.
func (t *TopN) Close() error {
	t.release()
	t.keys, t.seq, t.vals, t.heap, t.out = nil, nil, nil, nil, nil
	t.first, t.surv, t.cand = nil, nil, nil
	return t.child.Close()
}

// Children returns the input.
func (t *TopN) Children() []Operator { return []Operator{t.child} }

// Describe names the operator, its ordering, and n.
func (t *TopN) Describe() string {
	s := fmt.Sprintf("TopN(%d; ", t.n)
	for i, o := range t.order {
		if i > 0 {
			s += ", "
		}
		s += o.String()
	}
	return s + ")"
}

// Sort is a full materializing sort, the general-purpose sibling of TopN
// (used where the paper's plans need ordered output without a bound).
type Sort struct {
	base
	child Operator
	order []OrderSpec
	top   *TopN
}

// NewSort builds a sort node.
func NewSort(child Operator, order []OrderSpec) *Sort {
	return &Sort{child: child, order: order}
}

// Open delegates to an unbounded TopN (n = 1<<62), whose slots grow by
// doubling and whose threshold never fires.
func (s *Sort) Open(ctx *ExecContext) error {
	s.top = NewTopN(s.child, 1<<62, s.order)
	if err := s.top.Open(ctx); err != nil {
		return err
	}
	s.schema = s.top.Schema()
	return nil
}

// Next streams sorted output.
func (s *Sort) Next() (*vector.Batch, error) {
	start := time.Now()
	b, err := s.top.Next()
	s.observe(start, b)
	return b, err
}

// Close closes the underlying TopN.
func (s *Sort) Close() error { return s.top.Close() }

// Children returns the input.
func (s *Sort) Children() []Operator { return []Operator{s.child} }

// Describe names the operator and ordering.
func (s *Sort) Describe() string {
	str := "Sort("
	for i, o := range s.order {
		if i > 0 {
			str += ", "
		}
		str += o.String()
	}
	return str + ")"
}
