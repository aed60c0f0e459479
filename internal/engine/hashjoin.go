package engine

import (
	"fmt"
	"time"

	"repro/internal/vector"
)

// HashJoin is the inner equi-join alternative to MergeJoin: the right
// (build) side is materialized into a hash table, then the left (probe)
// side streams through. It does not require sorted inputs and serves as
// the ablation baseline for merge-join over inverted lists (BenchmarkJoinAblation):
// merging exploits the (term, docid) ordering the storage layout already
// provides, hashing pays materialization.
type HashJoin struct {
	base
	left, right      Operator
	leftKey          string
	rightKey         string
	lPrefix, rPrefix string

	lKeyIdx int
	nLeft   int

	buildCols []*vector.Vector // materialized right side
	buildIdx  map[int64][]int32

	lBatch  *vector.Batch
	lPos    int
	matches []int32 // pending matches for the current probe row
	mPos    int
	lDone   bool

	out     *vector.Batch
	vecSize int
}

// NewHashJoin builds an inner hash join with the right side as build input.
func NewHashJoin(left, right Operator, leftKey, rightKey, lPrefix, rPrefix string) *HashJoin {
	return &HashJoin{
		left: left, right: right,
		leftKey: leftKey, rightKey: rightKey,
		lPrefix: lPrefix, rPrefix: rPrefix,
	}
}

// Open opens the children, builds the hash table from the right input, and
// prepares output buffers.
func (j *HashJoin) Open(ctx *ExecContext) error {
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		return err
	}
	ls, rs := j.left.Schema(), j.right.Schema()
	j.lKeyIdx = ls.Index(j.leftKey)
	rKeyIdx := rs.Index(j.rightKey)
	if j.lKeyIdx < 0 || rKeyIdx < 0 {
		return fmt.Errorf("engine: hash join keys %q/%q not found", j.leftKey, j.rightKey)
	}
	if ls[j.lKeyIdx].Type != vector.Int64 || rs[rKeyIdx].Type != vector.Int64 {
		return fmt.Errorf("engine: hash join keys must be Int64")
	}
	j.schema = j.schema[:0]
	for _, c := range ls {
		j.schema = append(j.schema, Col{Name: j.lPrefix + c.Name, Type: c.Type})
	}
	for _, c := range rs {
		j.schema = append(j.schema, Col{Name: j.rPrefix + c.Name, Type: c.Type})
	}
	j.nLeft = len(ls)
	j.ctx, j.vecSize = ctx, ctx.VectorSize

	// Build phase: drain the right child into growable columns.
	j.buildCols = make([]*vector.Vector, len(rs))
	var rows int32
	type acc struct {
		i64 []int64
		f64 []float64
		u8  []uint8
		s   []string
		b   []bool
		i32 []int32
	}
	accs := make([]acc, len(rs))
	j.buildIdx = make(map[int64][]int32)
	for {
		b, err := j.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			pos := i
			if b.Sel != nil {
				pos = int(b.Sel[i])
			}
			for c, v := range b.Vecs {
				switch v.Type() {
				case vector.Int64:
					accs[c].i64 = append(accs[c].i64, v.I64[pos])
				case vector.Float64:
					accs[c].f64 = append(accs[c].f64, v.F64[pos])
				case vector.UInt8:
					accs[c].u8 = append(accs[c].u8, v.U8[pos])
				case vector.Str:
					accs[c].s = append(accs[c].s, v.S[pos])
				case vector.Bool:
					accs[c].b = append(accs[c].b, v.B[pos])
				case vector.Int32:
					accs[c].i32 = append(accs[c].i32, v.I32[pos])
				}
			}
			key := b.Vecs[rKeyIdx].I64[pos]
			j.buildIdx[key] = append(j.buildIdx[key], rows)
			rows++
		}
	}
	for c := range rs {
		switch rs[c].Type {
		case vector.Int64:
			j.buildCols[c] = vector.NewInt64(accs[c].i64)
		case vector.Float64:
			j.buildCols[c] = vector.NewFloat64(accs[c].f64)
		case vector.UInt8:
			j.buildCols[c] = vector.NewUInt8(accs[c].u8)
		case vector.Str:
			j.buildCols[c] = vector.NewStr(accs[c].s)
		case vector.Bool:
			j.buildCols[c] = vector.NewBool(accs[c].b)
		case vector.Int32:
			j.buildCols[c] = vector.NewInt32(accs[c].i32)
		}
	}

	vecs := make([]*vector.Vector, len(j.schema))
	for i, c := range j.schema {
		vecs[i] = j.take(c.Type, j.vecSize)
	}
	j.out = &vector.Batch{Vecs: vecs}
	j.lBatch, j.lPos, j.lDone = nil, 0, false
	j.matches, j.mPos = nil, 0
	return nil
}

// Next probes the hash table with the next vector of left rows.
func (j *HashJoin) Next() (*vector.Batch, error) {
	start := time.Now()
	emit := 0
	for emit < j.vecSize {
		// Flush pending matches of the current probe row first.
		for j.mPos < len(j.matches) && emit < j.vecSize {
			j.emitPair(emit, j.lPos, int(j.matches[j.mPos]))
			j.mPos++
			emit++
		}
		if j.mPos < len(j.matches) {
			break // output full, resume same probe row next call
		}
		if j.matches != nil {
			j.matches, j.mPos = nil, 0
			j.lPos++
		}
		// Advance to the next probe row with matches.
		if j.lBatch == nil || j.lPos >= j.lBatch.N {
			if j.lDone {
				break
			}
			b, err := j.left.Next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				j.lDone = true
				break
			}
			b.Compact()
			j.lBatch, j.lPos = b, 0
			continue
		}
		key := j.lBatch.Vecs[j.lKeyIdx].I64[j.lPos]
		if m, ok := j.buildIdx[key]; ok {
			j.matches, j.mPos = m, 0
		} else {
			j.lPos++
		}
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

func (j *HashJoin) emitPair(at, lPos, rRow int) {
	for c, v := range j.lBatch.Vecs {
		copyValue(j.out.Vecs[c], at, v, lPos)
	}
	for c, v := range j.buildCols {
		copyValue(j.out.Vecs[j.nLeft+c], at, v, rRow)
	}
}

// Close gives the output vectors back, closes both children and drops the
// build table.
func (j *HashJoin) Close() error {
	j.release()
	err1 := j.left.Close()
	err2 := j.right.Close()
	j.buildCols, j.buildIdx, j.out, j.lBatch = nil, nil, nil, nil
	if err1 != nil {
		return err1
	}
	return err2
}

// Children returns both inputs.
func (j *HashJoin) Children() []Operator { return []Operator{j.left, j.right} }

// Describe names the operator and key equation.
func (j *HashJoin) Describe() string {
	return fmt.Sprintf("HashJoin(%s%s = %s%s)", j.lPrefix, j.leftKey, j.rPrefix, j.rightKey)
}
