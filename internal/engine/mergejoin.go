package engine

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/vector"
)

// MergeJoin combines two inputs ordered by an Int64 key column. With
// Outer=false it is the paper's MergeJoin (boolean AND over inverted
// lists); with Outer=true it is the MergeOuterJoin (boolean OR): unmatched
// rows are emitted with the other side's columns zero-padded, which is
// exactly what BM25 needs, since a zero term frequency contributes a zero
// term weight.
//
// Both inputs must be strictly increasing on their key columns — the
// natural property of inverted lists ordered on (term, docid), where a
// docid occurs at most once per term. The operator checks this invariant
// as it consumes input and fails loudly on violations.
type MergeJoin struct {
	base
	left, right      Operator
	leftKey          string
	rightKey         string
	lPrefix, rPrefix string
	outer            bool

	lKeyIdx, rKeyIdx int
	lBatch, rBatch   *vector.Batch
	lPos, rPos       int
	lDone, rDone     bool
	lPrev, rPrev     int64

	out        *vector.Batch
	lIdx, rIdx []int32 // phase-1 output: positions (inner) or output slots (outer)
	vecSize    int
	nLeft      int // columns contributed by the left side
}

// NewMergeJoin builds an inner merge join; output columns are the left
// columns then the right columns, with the given prefixes applied to
// disambiguate names (e.g. "t1." and "t2." for self-joined TD scans).
func NewMergeJoin(left, right Operator, leftKey, rightKey, lPrefix, rPrefix string) *MergeJoin {
	return &MergeJoin{
		left: left, right: right,
		leftKey: leftKey, rightKey: rightKey,
		lPrefix: lPrefix, rPrefix: rPrefix,
	}
}

// NewMergeOuterJoin builds a full outer merge join.
func NewMergeOuterJoin(left, right Operator, leftKey, rightKey, lPrefix, rPrefix string) *MergeJoin {
	j := NewMergeJoin(left, right, leftKey, rightKey, lPrefix, rPrefix)
	j.outer = true
	return j
}

// Open opens both children, builds the output schema and takes the output
// and position buffers from the context.
func (j *MergeJoin) Open(ctx *ExecContext) error {
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	ls, rs := j.left.Schema(), j.right.Schema()
	j.lKeyIdx, j.rKeyIdx = ls.Index(j.leftKey), rs.Index(j.rightKey)
	if j.lKeyIdx < 0 || j.rKeyIdx < 0 {
		return fmt.Errorf("engine: merge join keys %q/%q not found", j.leftKey, j.rightKey)
	}
	if ls[j.lKeyIdx].Type != vector.Int64 || rs[j.rKeyIdx].Type != vector.Int64 {
		return fmt.Errorf("engine: merge join keys must be Int64")
	}
	j.schema = make(Schema, 0, len(ls)+len(rs))
	for _, c := range ls {
		j.schema = append(j.schema, Col{Name: j.lPrefix + c.Name, Type: c.Type})
	}
	for _, c := range rs {
		j.schema = append(j.schema, Col{Name: j.rPrefix + c.Name, Type: c.Type})
	}
	j.nLeft = len(ls)

	j.ctx, j.vecSize = ctx, ctx.VectorSize
	vecs := make([]*vector.Vector, len(j.schema))
	for i, c := range j.schema {
		vecs[i] = j.take(c.Type, j.vecSize)
	}
	j.out = &vector.Batch{Vecs: vecs}
	j.lIdx, j.rIdx = j.take(vector.Int32, j.vecSize).I32, j.take(vector.Int32, j.vecSize).I32
	j.lBatch, j.rBatch = nil, nil
	j.lPos, j.rPos = 0, 0
	j.lDone, j.rDone = false, false
	j.lPrev, j.rPrev = -1<<63, -1<<63
	return nil
}

// ensure advances a side to a non-empty batch, compacting so that
// positions are dense and validating the strictly-increasing key
// invariant once per batch. Returns false when the side is exhausted.
func (j *MergeJoin) ensureLeft() (bool, error) {
	for !j.lDone && (j.lBatch == nil || j.lPos >= j.lBatch.N) {
		b, err := j.left.Next()
		if err != nil {
			return false, err
		}
		if b == nil {
			j.lDone = true
			j.lBatch, j.lPos = nil, 0
			break
		}
		b.Compact()
		if b.N == 0 {
			continue
		}
		if err := checkIncreasing("left", b.Vecs[j.lKeyIdx].I64[:b.N], &j.lPrev); err != nil {
			return false, err
		}
		j.lBatch, j.lPos = b, 0
	}
	return !j.lDone, nil
}

func (j *MergeJoin) ensureRight() (bool, error) {
	for !j.rDone && (j.rBatch == nil || j.rPos >= j.rBatch.N) {
		b, err := j.right.Next()
		if err != nil {
			return false, err
		}
		if b == nil {
			j.rDone = true
			j.rBatch, j.rPos = nil, 0
			break
		}
		b.Compact()
		if b.N == 0 {
			continue
		}
		if err := checkIncreasing("right", b.Vecs[j.rKeyIdx].I64[:b.N], &j.rPrev); err != nil {
			return false, err
		}
		j.rBatch, j.rPos = b, 0
	}
	return !j.rDone, nil
}

// checkIncreasing validates one batch of keys against the running
// previous key, updating it to the batch's last key.
func checkIncreasing(side string, keys []int64, prev *int64) error {
	p := *prev
	for _, k := range keys {
		if k <= p {
			return fmt.Errorf("engine: merge join %s input not strictly increasing (%d after %d)", side, k, p)
		}
		p = k
	}
	*prev = p
	return nil
}

// Next produces the next vector of joined tuples, vector-at-a-time. Over
// the rows left in the two current input batches it runs one tight loop on
// the key slices that only records positions (phase 1: matchWindow or
// matchOuter), then moves every output column through those positions with
// one typed loop per column (phase 2: gatherColumn or scatterColumn). Phase
// 2 runs before the next child batch is pulled, because child batches are
// buffers the children reuse; an output vector may take several rounds.
func (j *MergeJoin) Next() (*vector.Batch, error) {
	start := time.Now()
	emit := 0
	for emit < j.vecSize {
		lOK, err := j.ensureLeft()
		if err != nil {
			return nil, err
		}
		rOK, err := j.ensureRight()
		if err != nil {
			return nil, err
		}
		if !lOK && !rOK {
			break
		}
		if !j.outer && (!lOK || !rOK) {
			// Inner join: one exhausted side ends the stream, but the
			// other child is still drained lazily by Close.
			break
		}
		lKeys, rKeys := restOfKeys(j.lBatch, j.lKeyIdx, j.lPos), restOfKeys(j.rBatch, j.rKeyIdx, j.rPos)
		lIdx, rIdx := j.lIdx[:j.vecSize-emit], j.rIdx[:j.vecSize-emit]
		var nl, nr, n int
		if j.outer {
			nl, nr, n = matchOuter(lKeys, rKeys, lIdx, rIdx)
			lIdx, rIdx = lIdx[:nl], rIdx[:nr]
		} else {
			nl, nr, n = matchWindow(lKeys, rKeys, lIdx, rIdx, j.ctx)
			lIdx, rIdx = lIdx[:n], rIdx[:n]
		}
		for c, dst := range j.out.Vecs {
			src, pos, idx := j.lBatch, j.lPos, lIdx
			if c >= j.nLeft {
				src, pos, idx, c = j.rBatch, j.rPos, rIdx, c-j.nLeft
			}
			col := &exhausted
			if src != nil {
				col = src.Vecs[c]
			}
			if j.outer {
				scatterColumn(dst, emit, n, col, pos, idx)
			} else {
				gatherColumn(dst, emit, col, pos, idx)
			}
		}
		j.lPos, j.rPos, emit = j.lPos+nl, j.rPos+nr, emit+n
	}
	if emit == 0 {
		j.observe(start, nil)
		return nil, nil
	}
	for _, v := range j.out.Vecs {
		v.SetLen(emit)
	}
	j.out.Sel = nil
	j.out.N = emit
	j.observe(start, j.out)
	return j.out, nil
}

// restOfKeys returns the keys of a batch from row pos on; none for the nil
// batch of an exhausted input.
func restOfKeys(b *vector.Batch, keyIdx, pos int) []int64 {
	if b == nil {
		return nil
	}
	return b.Vecs[keyIdx].I64[pos:b.N]
}

// exhausted stands in for the columns of an input that has ended; it is
// never written.
var exhausted vector.Vector

// matchInner is phase 1 of the inner join: it walks two strictly increasing
// key slices and records the position pair of every equal key, until a
// slice or the position vectors run out. It returns the rows consumed from
// each side and the number of pairs written.
func matchInner(lKeys, rKeys []int64, lIdx, rIdx []int32) (nl, nr, n int) {
	for nl < len(lKeys) && nr < len(rKeys) && n < len(lIdx) {
		lk, rk := lKeys[nl], rKeys[nr]
		// Branch-free: the pair is always written and kept only on a match.
		lIdx[n], rIdx[n] = int32(nl), int32(nr)
		n += b2i(lk == rk)
		nl += b2i(lk <= rk)
		nr += b2i(lk >= rk)
	}
	return nl, nr, n
}

// maxWindow caps the key window matchWindow handles positionally, and with
// it the ExecContext's slot array: 64 Ki int32 slots, 256 KB.
const maxWindow = 1 << 16

// matchWindow is phase 1 of the inner join, with matchInner's results —
// the same pairs in the same order, the same rows consumed — but no
// dependency from one key to the next. Every match lies in the window
// [lo, hi] both key slices cover. The positions of the left keys in the
// window are scattered into a slot array indexed by key - lo; each right
// key in the window then reads its slot, and the pair is kept where the
// slot is set; the left keys are walked once more to clear their slots.
// Unless the output fills, matchInner would stop when the slice ending at
// hi runs out, having consumed every key up to hi on both sides, which two
// binary searches give; when it fills, both sides have consumed up to the
// last pair. A window wider than maxWindow — sparse keys — runs matchInner.
func matchWindow(lKeys, rKeys []int64, lIdx, rIdx []int32, ctx *ExecContext) (nl, nr, n int) {
	if len(lKeys) == 0 || len(rKeys) == 0 || len(lIdx) == 0 {
		return 0, 0, 0
	}
	lo := max(lKeys[0], rKeys[0])
	hi := min(lKeys[len(lKeys)-1], rKeys[len(rKeys)-1])
	if lo <= hi && uint64(hi-lo) >= maxWindow {
		return matchInner(lKeys, rKeys, lIdx, rIdx)
	}
	nl, nr = upperBound(lKeys, hi), upperBound(rKeys, hi)
	if lo > hi {
		return nl, nr, 0
	}
	slots := ctx.joinSlots(int(hi-lo) + 1)
	la, ra := lowerBound(lKeys, lo), lowerBound(rKeys, lo)
	lWin := lKeys[la:nl]
	for i, k := range lWin {
		slots[k-lo] = int32(la + i + 1)
	}
	// Probe in runs no longer than the output room left, so that not even a
	// run of nothing but matches can overflow it.
	for r := ra; r < nr && n < len(lIdx); {
		end := min(nr, r+len(lIdx)-n)
		for ; r < end; r++ {
			s := slots[rKeys[r]-lo]
			lIdx[n], rIdx[n] = s-1, int32(r)
			n += b2i(s != 0)
		}
	}
	for _, k := range lWin {
		slots[k-lo] = 0
	}
	if n == len(lIdx) {
		return int(lIdx[n-1]) + 1, int(rIdx[n-1]) + 1, n
	}
	return nl, nr, n
}

// lowerBound returns the number of keys below k in a strictly increasing
// slice; upperBound the number at or below k.
func lowerBound(keys []int64, k int64) int {
	i, _ := slices.BinarySearch(keys, k)
	return i
}

func upperBound(keys []int64, k int64) int {
	i, found := slices.BinarySearch(keys, k)
	return i + b2i(found)
}

// matchOuter is phase 1 of the full outer join. Every key of either slice
// yields one output tuple, so each input is consumed as a run of consecutive
// rows, and what is recorded is where each row goes: lSlot[k] is the output
// slot of left row k, likewise rSlot; a slot no row of a side is sent to is
// that side's zero padding. An empty slice is an exhausted input (a live
// one always has rows left), and the other side's rows then go out as one
// run. It returns the rows consumed from each side and the number of
// output tuples.
func matchOuter(lKeys, rKeys []int64, lSlot, rSlot []int32) (nl, nr, n int) {
	switch {
	case len(lKeys) == 0:
		for ; nr < len(rKeys) && nr < len(rSlot); nr++ {
			rSlot[nr] = int32(nr)
		}
		return 0, nr, nr
	case len(rKeys) == 0:
		for ; nl < len(lKeys) && nl < len(lSlot); nl++ {
			lSlot[nl] = int32(nl)
		}
		return nl, 0, nl
	}
	for nl < len(lKeys) && nr < len(rKeys) && n < len(lSlot) {
		lk, rk := lKeys[nl], rKeys[nr]
		// Branch-free: both slots are written, and a side keeps its slot
		// only if its row went out.
		lSlot[nl], rSlot[nr] = int32(n), int32(n)
		nl += b2i(lk <= rk)
		nr += b2i(lk >= rk)
		n++
	}
	return nl, nr, n
}

// b2i is 1 for true. It compiles to a flag-setting instruction, not a jump,
// which keeps the phase-1 loops free of data-dependent branches.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gatherColumn is phase 2 of the inner join for one output column:
// dst[at+i] = src[pos+idx[i]].
func gatherColumn(dst *vector.Vector, at int, src *vector.Vector, pos int, idx []int32) {
	switch dst.Type() {
	case vector.Int64:
		gather(dst.I64[at:], src.I64[pos:], idx)
	case vector.Int32:
		gather(dst.I32[at:], src.I32[pos:], idx)
	case vector.Float64:
		gather(dst.F64[at:], src.F64[pos:], idx)
	case vector.UInt8:
		gather(dst.U8[at:], src.U8[pos:], idx)
	case vector.Str:
		gather(dst.S[at:], src.S[pos:], idx)
	case vector.Bool:
		gather(dst.B[at:], src.B[pos:], idx)
	}
}

func gather[T any](dst, src []T, idx []int32) {
	dst = dst[:len(idx)]
	for i, p := range idx {
		dst[i] = src[p]
	}
}

// scatterColumn is phase 2 of the outer join for one output column: the n
// values dst[at:at+n] are zero except dst[at+slot[k]] = src[pos+k].
func scatterColumn(dst *vector.Vector, at, n int, src *vector.Vector, pos int, slot []int32) {
	switch dst.Type() {
	case vector.Int64:
		scatter(dst.I64[at:at+n], src.I64[pos:], slot)
	case vector.Int32:
		scatter(dst.I32[at:at+n], src.I32[pos:], slot)
	case vector.Float64:
		scatter(dst.F64[at:at+n], src.F64[pos:], slot)
	case vector.UInt8:
		scatter(dst.U8[at:at+n], src.U8[pos:], slot)
	case vector.Str:
		scatter(dst.S[at:at+n], src.S[pos:], slot)
	case vector.Bool:
		scatter(dst.B[at:at+n], src.B[pos:], slot)
	}
}

func scatter[T any](dst, src []T, slot []int32) {
	clear(dst)
	src = src[:len(slot)]
	for k, s := range slot {
		dst[s] = src[k]
	}
}

// Close gives the buffers back and closes both children.
func (j *MergeJoin) Close() error {
	j.release()
	err1 := j.left.Close()
	err2 := j.right.Close()
	j.lBatch, j.rBatch, j.out, j.lIdx, j.rIdx = nil, nil, nil, nil, nil
	if err1 != nil {
		return err1
	}
	return err2
}

// Children returns both inputs.
func (j *MergeJoin) Children() []Operator { return []Operator{j.left, j.right} }

// Describe names the operator, its kind, and the key equation.
func (j *MergeJoin) Describe() string {
	kind := "MergeJoin"
	if j.outer {
		kind = "MergeOuterJoin"
	}
	return fmt.Sprintf("%s(%s%s = %s%s)", kind, j.lPrefix, j.leftKey, j.rPrefix, j.rightKey)
}
