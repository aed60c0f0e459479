package engine

import (
	"fmt"
	"time"

	"repro/internal/primitives"
	"repro/internal/vector"
)

// AggOp enumerates aggregate functions.
type AggOp uint8

// Aggregate functions.
const (
	AggSum AggOp = iota
	AggCount
	AggMin
	AggMax
)

func (op AggOp) String() string {
	return [...]string{"sum", "count", "min", "max"}[op]
}

// AggSpec is one aggregate output: Op applied to input column Col (ignored
// for count), emitted under Name.
type AggSpec struct {
	Op   AggOp
	Col  string
	Name string
}

// Aggregate is the hash-aggregation operator of Figure 1 ("hash table
// maintenance" plus grouped aggr_* primitives): it groups by zero or more
// key columns (Int64 or Str) and folds aggregates per group. Grouping
// works vector-at-a-time: each input vector is first translated to a
// vector of group ids by hash-table lookup, then each aggregate is updated
// by one grouped primitive call over the whole vector.
//
// With no group columns it degenerates to scalar aggregation over the
// whole input (one output row, even for empty input, per SQL semantics for
// global aggregates).
type Aggregate struct {
	base
	child  Operator
	groups []string
	aggs   []AggSpec

	groupIdx []int
	aggIdx   []int

	// Group state.
	keyToGid map[groupKey]int32
	keyCols  []*vector.Vector // group key representatives, by gid
	accI     [][]int64        // per agg: int64 accumulators by gid
	accF     [][]float64      // per agg: float64 accumulators by gid
	gids     []int32

	done    bool
	out     *vector.Batch
	emitPos int
	vecSize int
}

// groupKey supports up to two grouping columns of Int64/Str type.
type groupKey struct {
	i1, i2 int64
	s1, s2 string
}

// NewAggregate builds an aggregation node.
func NewAggregate(child Operator, groups []string, aggs []AggSpec) *Aggregate {
	return &Aggregate{child: child, groups: groups, aggs: aggs}
}

// Open binds columns and resets state; aggregation runs lazily on the
// first Next.
func (a *Aggregate) Open(ctx *ExecContext) error {
	if err := a.child.Open(ctx); err != nil {
		return err
	}
	if len(a.groups) > 2 {
		return fmt.Errorf("engine: at most 2 group columns supported, got %d", len(a.groups))
	}
	in := a.child.Schema()
	a.schema = a.schema[:0]
	a.groupIdx = a.groupIdx[:0]
	for _, g := range a.groups {
		i := in.Index(g)
		if i < 0 {
			return fmt.Errorf("engine: unknown group column %q", g)
		}
		if t := in[i].Type; t != vector.Int64 && t != vector.Str {
			return fmt.Errorf("engine: group column %q has unsupported type %v", g, t)
		}
		a.groupIdx = append(a.groupIdx, i)
		a.schema = append(a.schema, in[i])
	}
	a.aggIdx = a.aggIdx[:0]
	for _, spec := range a.aggs {
		switch spec.Op {
		case AggCount:
			a.aggIdx = append(a.aggIdx, -1)
			a.schema = append(a.schema, Col{Name: spec.Name, Type: vector.Int64})
		default:
			i := in.Index(spec.Col)
			if i < 0 {
				return fmt.Errorf("engine: unknown aggregate column %q", spec.Col)
			}
			t := in[i].Type
			if t != vector.Int64 && t != vector.Float64 {
				return fmt.Errorf("engine: aggregate %v over unsupported type %v", spec.Op, t)
			}
			a.aggIdx = append(a.aggIdx, i)
			a.schema = append(a.schema, Col{Name: spec.Name, Type: t})
		}
	}
	a.keyToGid = make(map[groupKey]int32)
	a.keyCols = make([]*vector.Vector, len(a.groups))
	for i, gi := range a.groupIdx {
		// Group keys are Int64 or Str; the representatives grow by append.
		if in[gi].Type == vector.Int64 {
			a.keyCols[i] = vector.NewInt64(nil)
		} else {
			a.keyCols[i] = vector.NewStr(nil)
		}
	}
	a.accI = make([][]int64, len(a.aggs))
	a.accF = make([][]float64, len(a.aggs))
	a.ctx, a.vecSize = ctx, ctx.VectorSize
	a.gids = a.take(vector.Int32, a.vecSize).I32
	vecs := make([]*vector.Vector, len(a.schema))
	for c, col := range a.schema {
		vecs[c] = a.take(col.Type, a.vecSize)
	}
	a.out = &vector.Batch{Vecs: vecs}
	a.done = false
	a.emitPos = 0
	return nil
}

// Next drains the child on first call, then emits result vectors.
func (a *Aggregate) Next() (*vector.Batch, error) {
	start := time.Now()
	if !a.done {
		if err := a.consume(); err != nil {
			return nil, err
		}
		a.done = true
	}
	nGroups := len(a.keyToGid)
	if len(a.groups) == 0 {
		nGroups = 1 // scalar aggregate always has one row
	}
	if a.emitPos >= nGroups {
		a.observe(start, nil)
		return nil, nil
	}
	n := nGroups - a.emitPos
	if n > a.vecSize {
		n = a.vecSize
	}
	vecs := a.out.Vecs
	for _, v := range vecs {
		v.SetLen(n)
	}
	for r := 0; r < n; r++ {
		gid := a.emitPos + r
		for c := range a.groups {
			copyValue(vecs[c], r, a.keyCols[c], gid)
		}
		for ai, spec := range a.aggs {
			c := len(a.groups) + ai
			switch {
			case spec.Op == AggCount || a.schema[c].Type == vector.Int64:
				vecs[c].I64[r] = a.accInt(ai, gid)
			default:
				vecs[c].F64[r] = a.accFloat(ai, gid)
			}
		}
	}
	a.emitPos += n
	a.out.Sel, a.out.N = nil, n
	a.observe(start, a.out)
	return a.out, nil
}

func (a *Aggregate) accInt(ai, gid int) int64 {
	if gid < len(a.accI[ai]) {
		return a.accI[ai][gid]
	}
	return 0
}

func (a *Aggregate) accFloat(ai, gid int) float64 {
	if gid < len(a.accF[ai]) {
		return a.accF[ai][gid]
	}
	return 0
}

// consume drains the child, maintaining group state.
func (a *Aggregate) consume() error {
	in := a.child.Schema()
	if len(a.groups) == 0 {
		a.ensureGroupCapacity(1)
	}
	for {
		b, err := a.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		if b.N == 0 {
			continue
		}
		// Translate tuples to group ids.
		full := b.FullLen()
		if len(a.gids) < full {
			a.gids = a.take(vector.Int32, full).I32
		}
		gids := a.gids[:full]
		if len(a.groups) == 0 {
			for i := range gids {
				gids[i] = 0
			}
		} else {
			for i := 0; i < b.N; i++ {
				pos := i
				if b.Sel != nil {
					pos = int(b.Sel[i])
				}
				key := a.makeKey(b, pos)
				gid, ok := a.keyToGid[key]
				if !ok {
					gid = int32(len(a.keyToGid))
					a.keyToGid[key] = gid
					a.appendKeyRep(b, pos)
					a.ensureGroupCapacity(int(gid) + 1)
				}
				gids[pos] = gid
			}
		}
		// Grouped primitive update per aggregate, whole vector at a time.
		for ai, spec := range a.aggs {
			switch spec.Op {
			case AggCount:
				primitives.AggrCountGrouped(a.accI[ai], gids, b.Sel, b.N)
			case AggSum:
				ci := a.aggIdx[ai]
				if in[ci].Type == vector.Int64 {
					primitives.AggrSumInt64ColGrouped(a.accI[ai], b.Vecs[ci].I64, gids, b.Sel, b.N)
				} else {
					primitives.AggrSumFloat64ColGrouped(a.accF[ai], b.Vecs[ci].F64, gids, b.Sel, b.N)
				}
			case AggMin:
				ci := a.aggIdx[ai]
				if in[ci].Type == vector.Int64 {
					primitives.AggrMinInt64ColGrouped(a.accI[ai], b.Vecs[ci].I64, gids, b.Sel, b.N)
				} else {
					// No grouped float-min primitive in the catalog; the
					// scalar fallback mirrors what X100 would generate.
					accs := a.accF[ai]
					for i := 0; i < b.N; i++ {
						pos := i
						if b.Sel != nil {
							pos = int(b.Sel[i])
						}
						if v := b.Vecs[ci].F64[pos]; v < accs[gids[pos]] {
							accs[gids[pos]] = v
						}
					}
				}
			case AggMax:
				ci := a.aggIdx[ai]
				if in[ci].Type == vector.Int64 {
					accs := a.accI[ai]
					for i := 0; i < b.N; i++ {
						pos := i
						if b.Sel != nil {
							pos = int(b.Sel[i])
						}
						if v := b.Vecs[ci].I64[pos]; v > accs[gids[pos]] {
							accs[gids[pos]] = v
						}
					}
				} else {
					primitives.AggrMaxFloat64ColGrouped(a.accF[ai], b.Vecs[ci].F64, gids, b.Sel, b.N)
				}
			}
		}
	}
}

const (
	minInit = int64(1) << 62
	maxInit = -(int64(1) << 62)
)

func (a *Aggregate) ensureGroupCapacity(n int) {
	in := a.child.Schema()
	for ai, spec := range a.aggs {
		isInt := spec.Op == AggCount || (a.aggIdx[ai] >= 0 && in[a.aggIdx[ai]].Type == vector.Int64)
		if isInt {
			for len(a.accI[ai]) < n {
				init := int64(0)
				if spec.Op == AggMin {
					init = minInit
				} else if spec.Op == AggMax {
					init = maxInit
				}
				a.accI[ai] = append(a.accI[ai], init)
			}
		} else {
			for len(a.accF[ai]) < n {
				init := 0.0
				if spec.Op == AggMin {
					init = 1e308
				} else if spec.Op == AggMax {
					init = -1e308
				}
				a.accF[ai] = append(a.accF[ai], init)
			}
		}
	}
}

func (a *Aggregate) makeKey(b *vector.Batch, pos int) groupKey {
	var k groupKey
	for i, gi := range a.groupIdx {
		v := b.Vecs[gi]
		if v.Type() == vector.Int64 {
			if i == 0 {
				k.i1 = v.I64[pos]
			} else {
				k.i2 = v.I64[pos]
			}
		} else {
			if i == 0 {
				k.s1 = v.S[pos]
			} else {
				k.s2 = v.S[pos]
			}
		}
	}
	return k
}

func (a *Aggregate) appendKeyRep(b *vector.Batch, pos int) {
	for i, gi := range a.groupIdx {
		src := b.Vecs[gi]
		dst := a.keyCols[i]
		if src.Type() == vector.Int64 {
			dst.I64 = append(dst.I64, src.I64[pos])
			dst.SetLen(len(dst.I64))
		} else {
			dst.S = append(dst.S, src.S[pos])
			dst.SetLen(len(dst.S))
		}
	}
}

// Close gives the buffers back, closes the child and drops state.
func (a *Aggregate) Close() error {
	a.release()
	a.keyToGid, a.keyCols, a.accI, a.accF, a.out, a.gids = nil, nil, nil, nil, nil, nil
	return a.child.Close()
}

// Children returns the input.
func (a *Aggregate) Children() []Operator { return []Operator{a.child} }

// Describe lists groups and aggregates.
func (a *Aggregate) Describe() string {
	s := "Aggregate(by="
	for i, g := range a.groups {
		if i > 0 {
			s += ","
		}
		s += g
	}
	s += "; "
	for i, ag := range a.aggs {
		if i > 0 {
			s += ", "
		}
		if ag.Op == AggCount {
			s += fmt.Sprintf("%s=count()", ag.Name)
		} else {
			s += fmt.Sprintf("%s=%v(%s)", ag.Name, ag.Op, ag.Col)
		}
	}
	return s + ")"
}
