package ir

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/colbm"
	"repro/internal/vector"
)

// Column names of relation T, the term dictionary: one row per term in
// sorted surface order, stored beside TD and D like any other table.
//
//	term      — the term (Str, raw)
//	start     — the first TD row of its posting list (PFOR-DELTA); its end
//	            is the next start in TD row order, TD's row count for the
//	            last list
//	ftd       — its document frequency, TermInfo.Ftd (PFOR)
//	maxscore  — TermInfo.MaxScore's float64 bits (Int64, raw: a Float64
//	            column stores float32, which would round the bound)
//	skyline   — its skyline in the varint encoding of AppendSkyline (Str,
//	            raw), empty for a term without one (over SkylineCap)
//
// Both compressed columns take fixed 8-bit codewords, as TD's do: a list
// length or a document frequency over 255 is an exception, and the
// encoder never searches for a width.
//
// A query does not read T: the dictionary is decoded once per segment
// (ReadDictionary) into Index.Terms.
const (
	ColTerm     = "term"
	ColStart    = "start"
	ColFtd      = "ftd"
	ColMaxScore = "maxscore"
	ColSkyline  = "skyline"
)

// dictSpecs are T's columns at chunk length chunkLen.
func dictSpecs(chunkLen int) []colbm.ColumnSpec {
	return []colbm.ColumnSpec{
		{Name: ColTerm, Type: vector.Str, ChunkLen: chunkLen},
		{Name: ColStart, Type: vector.Int64, Enc: colbm.EncPFORDelta, Bits: 8, ChunkLen: chunkLen},
		{Name: ColFtd, Type: vector.Int64, Enc: colbm.EncPFOR, Bits: 8, ChunkLen: chunkLen},
		{Name: ColMaxScore, Type: vector.Int64, Enc: colbm.EncNone, ChunkLen: chunkLen},
		{Name: ColSkyline, Type: vector.Str, ChunkLen: chunkLen},
	}
}

// BuildDictionary writes terms as relation T, table name of store, at
// chunk length chunkLen (0 = postingChunkLen). sky holds skylines of some
// of the terms, in sorted term order (buildSkylines over sorted terms
// yields that order). Every term must own at least one posting row.
func BuildDictionary(name string, store colbm.BlockStore, cache colbm.ChunkCache, chunkLen int,
	terms map[string]TermInfo, sky []Skyline) (*colbm.Table, error) {
	order := make([]string, 0, len(terms))
	for t := range terms {
		order = append(order, t)
	}
	slices.Sort(order)
	return buildDictionary(name, store, cache, chunkLen, order, terms, sky)
}

// buildDictionary is BuildDictionary over the sorted terms order.
func buildDictionary(name string, store colbm.BlockStore, cache colbm.ChunkCache, chunkLen int,
	order []string, terms map[string]TermInfo, sky []Skyline) (*colbm.Table, error) {
	if chunkLen == 0 {
		chunkLen = postingChunkLen
	}
	n := len(order)
	starts, ftds, maxs := make([]int64, n), make([]int64, n), make([]int64, n)
	// Every skyline is encoded into one buffer, and each term's value is a
	// substring of it.
	var enc []byte
	ends := make([]int, n)
	j := 0
	for i, t := range order {
		ti := terms[t]
		if ti.End <= ti.Start {
			return nil, fmt.Errorf("ir: dictionary term %q has no posting rows", t)
		}
		starts[i], ftds[i], maxs[i] = int64(ti.Start), int64(ti.Ftd), int64(math.Float64bits(ti.MaxScore))
		if j < len(sky) && sky[j].Term == t {
			enc = AppendSkyline(enc, sky[j])
			j++
		}
		ends[i] = len(enc)
	}
	if j != len(sky) {
		return nil, fmt.Errorf("ir: skyline of %q is out of dictionary order or names no term", sky[j].Term)
	}
	all, skys := string(enc), make([]string, n)
	for i, prev := 0, 0; i < n; i++ {
		skys[i], prev = all[prev:ends[i]], ends[i]
	}
	b := colbm.NewBuilder(name, store, cache, dictSpecs(chunkLen))
	b.AppendStr(ColTerm, order...)
	b.SetInt64(ColStart, starts)
	b.SetInt64(ColFtd, ftds)
	b.SetInt64(ColMaxScore, maxs)
	b.AppendStr(ColSkyline, skys...)
	return b.Build()
}

// ErrBadDictionary is wrapped by ReadDictionary's error for a relation T
// that does not describe a dictionary of its posting table.
var ErrBadDictionary = errors.New("ir: invalid term dictionary")

// ReadDictionary decodes relation T over a posting table of postings rows
// into the range index and the skylines, both in T's order, and the terms
// without a skyline (rest, in T's order). It refuses, wrapping
// ErrBadDictionary, terms that are not strictly ascending, starts that do
// not tile [0, postings) with lists of at least one row, a document
// frequency below 1, a max score that is not finite, and skylines that are
// malformed (AppendSkyline's
// encoding, cut short or followed by more bytes), hold 0 or over
// SkylineCap points on a side, or points that are not positive or not in
// sweep order. Chunk errors — a checksum mismatch among them — are
// returned as they are.
func ReadDictionary(t *colbm.Table, postings int) (terms map[string]TermInfo, sky []Skyline, rest []string, err error) {
	n := t.N
	order, err := readStrColumn(t, ColTerm)
	if err != nil {
		return nil, nil, nil, err
	}
	skys, err := readStrColumn(t, ColSkyline)
	if err != nil {
		return nil, nil, nil, err
	}
	var cols [3][]int64
	for i, name := range []string{ColStart, ColFtd, ColMaxScore} {
		if cols[i], err = readInt64Column(t, name); err != nil {
			return nil, nil, nil, err
		}
	}
	starts, ftds, maxs := cols[0], cols[1], cols[2]
	for i := 1; i < n; i++ {
		if order[i-1] >= order[i] {
			return nil, nil, nil, fmt.Errorf("%w: term %q follows %q", ErrBadDictionary, order[i], order[i-1])
		}
	}
	ends, err := tileEnds(starts, postings)
	if err != nil {
		return nil, nil, nil, err
	}
	terms = make(map[string]TermInfo, n)
	var pts []SkyPoint
	for i, term := range order {
		if ftds[i] < 1 {
			return nil, nil, nil, fmt.Errorf("%w: term %q has document frequency %d", ErrBadDictionary, term, ftds[i])
		}
		maxScore := math.Float64frombits(uint64(maxs[i]))
		if math.IsNaN(maxScore) || math.IsInf(maxScore, 0) {
			return nil, nil, nil, fmt.Errorf("%w: term %q has max score %v", ErrBadDictionary, term, maxScore)
		}
		terms[term] = TermInfo{Start: int(starts[i]), End: ends[i], Ftd: int(ftds[i]), MaxScore: maxScore}
		if skys[i] == "" {
			rest = append(rest, term)
			continue
		}
		if pts == nil {
			// Every point takes at least two bytes, so pts never reallocates
			// and the decoded sides can share it.
			total := 0
			for _, s := range skys[i:] {
				total += len(s)
			}
			pts = make([]SkyPoint, 0, total/2)
		}
		r := SkylineReader{Data: unsafe.Slice(unsafe.StringData(skys[i]), len(skys[i])), pts: pts}
		s := r.Skyline(term)
		if r.Err == nil && len(r.Data) > 0 {
			r.Err = errors.New("bytes after the skyline")
		}
		if r.Err != nil {
			return nil, nil, nil, fmt.Errorf("%w: term %q: skyline: %v", ErrBadDictionary, term, r.Err)
		}
		pts = r.pts
		sky = append(sky, s)
	}
	return terms, sky, rest, nil
}

// tileEnds returns the end row of every posting list that starts at
// starts[i]: the next start in row order, postings for the last one. The
// starts must tile [0, postings), each list at least one row long. A
// dictionary in sorted term order over a posting table written in the same
// order — every segment an append or a merge writes — has ascending
// starts; one over a table in another order (a build of a generated
// collection, which keeps its frequency-ranked term ids) is walked in
// start order.
func tileEnds(starts []int64, postings int) ([]int, error) {
	n := len(starts)
	var byStart []int32
	if !slices.IsSorted(starts) {
		byStart = make([]int32, n)
		for i := range byStart {
			byStart[i] = int32(i)
		}
		slices.SortFunc(byStart, func(a, b int32) int { return cmp.Compare(starts[a], starts[b]) })
	}
	at := func(k int) int {
		if byStart != nil {
			return int(byStart[k])
		}
		return k
	}
	if n == 0 && postings != 0 {
		return nil, fmt.Errorf("%w: no posting list covers the %d rows", ErrBadDictionary, postings)
	}
	ends := make([]int, n)
	for k := 0; k < n; k++ {
		i := at(k)
		s, next := starts[i], int64(postings)
		if k+1 < n {
			next = starts[at(k+1)]
		}
		if k == 0 && s != 0 || next <= s {
			return nil, fmt.Errorf("%w: posting lists at rows %d and %d do not tile %d rows", ErrBadDictionary, s, next, postings)
		}
		ends[i] = int(next)
	}
	return ends, nil
}

// readStrColumn reads a whole Str column of t.
func readStrColumn(t *colbm.Table, name string) ([]string, error) {
	col, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, col.N)
	v, cur := vector.New(vector.Str, vector.DefaultSize), colbm.NewCursor(col)
	for pos := 0; pos < col.N; pos += vector.DefaultSize {
		k := min(vector.DefaultSize, col.N-pos)
		if err := cur.Read(v, pos, k); err != nil {
			return nil, err
		}
		copy(out[pos:], v.S[:k])
	}
	return out, nil
}

// readInt64Column reads a whole Int64 column of t.
func readInt64Column(t *colbm.Table, name string) ([]int64, error) {
	col, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	out := make([]int64, col.N)
	v, cur := vector.New(vector.Int64, vector.DefaultSize), colbm.NewCursor(col)
	for pos := 0; pos < col.N; pos += vector.DefaultSize {
		k := min(vector.DefaultSize, col.N-pos)
		if err := cur.Read(v, pos, k); err != nil {
			return nil, err
		}
		copy(out[pos:], v.I64[:k])
	}
	return out, nil
}

// Skyline encoding. One skyline is a string of uvarints:
//
//	(upper point count − 1)·SkylineCap + lower point count − 1
//	upper points, two uvarints each: the first point's tf and len, then
//	         each next point's decrease in both
//	lower points, two uvarints each: the first point's tf and len, then
//	         each next point's increase in both
//
// Short skylines — nearly all of them — cost a few bytes. Decoding
// (SkylineReader) rejects a side over SkylineCap, steps of 0 (points out
// of sweep order), points whose tf or len is not positive, and truncated
// or oversized varints.

// maxSkyValue bounds every decoded varint, so sums and differences of
// decoded values cannot overflow int64.
const maxSkyValue = 1 << 40

// AppendSkyline appends the encoding of s to buf: T's skyline value, and
// what a format-1 segment manifest stored per term after its row.
func AppendSkyline(buf []byte, s Skyline) []byte {
	buf = binary.AppendUvarint(buf, uint64((len(s.Upper)-1)*SkylineCap+len(s.Lower)-1))
	buf = appendSkySide(buf, s.Upper, -1)
	return appendSkySide(buf, s.Lower, 1)
}

// appendSkySide encodes one side's points; dir is the sign of its steps
// (−1 for the descending upper side, +1 for the ascending lower side).
func appendSkySide(buf []byte, pts []SkyPoint, dir int64) []byte {
	for i, p := range pts {
		tf, l := p.TF, p.Len
		if i > 0 {
			tf, l = dir*(p.TF-pts[i-1].TF), dir*(p.Len-pts[i-1].Len)
		}
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(tf)), uint64(l))
	}
	return buf
}

// SkylineReader decodes skylines and bare uvarints from Data, consuming
// it; the first error stops it and stays in Err. The points of every
// skyline it returns share one backing array.
type SkylineReader struct {
	Data []byte
	Err  error
	pts  []SkyPoint
}

// Uvarint decodes one uvarint of at most maxSkyValue.
func (r *SkylineReader) Uvarint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Data)
	if n <= 0 || v > maxSkyValue {
		r.Err = errors.New("truncated or oversized varint")
		return 0
	}
	r.Data = r.Data[n:]
	return int64(v)
}

// Skyline decodes one skyline (AppendSkyline's encoding) of term and
// checks both sides (checkSkySide).
func (r *SkylineReader) Skyline(term string) Skyline {
	counts := r.Uvarint()
	if r.Err == nil && counts >= SkylineCap*SkylineCap {
		r.Err = fmt.Errorf("a skyline side over %d points", SkylineCap)
	}
	if r.pts == nil {
		r.pts = make([]SkyPoint, 0, len(r.Data)/2)
	}
	lo := len(r.pts)
	r.side(counts/SkylineCap+1, -1)
	mid := len(r.pts)
	r.side(counts%SkylineCap+1, 1)
	s := Skyline{Term: term, Upper: r.pts[lo:mid:mid], Lower: r.pts[mid:len(r.pts):len(r.pts)]}
	if r.Err == nil {
		if err := checkSkySide(s.Upper, -1); err != nil {
			r.Err = fmt.Errorf("upper skyline: %v", err)
		} else if err := checkSkySide(s.Lower, 1); err != nil {
			r.Err = fmt.Errorf("lower skyline: %v", err)
		}
	}
	return s
}

// side decodes n points of one skyline side onto r.pts; dir is as in
// appendSkySide.
func (r *SkylineReader) side(n, dir int64) {
	first := len(r.pts)
	for i := int64(0); i < n && r.Err == nil; i++ {
		p := SkyPoint{TF: r.Uvarint(), Len: r.Uvarint()}
		if len(r.pts) > first {
			prev := r.pts[len(r.pts)-1]
			p = SkyPoint{TF: prev.TF + dir*p.TF, Len: prev.Len + dir*p.Len}
		}
		r.pts = append(r.pts, p)
	}
}

// checkSkySide checks one side of a skyline: 1..SkylineCap points, each
// positive, each next one stepping by at least 1 in both tf and len in
// direction dir (as in appendSkySide).
func checkSkySide(pts []SkyPoint, dir int64) error {
	if len(pts) < 1 || len(pts) > SkylineCap {
		return fmt.Errorf("%d points, want 1 to %d", len(pts), SkylineCap)
	}
	for i, p := range pts {
		if p.TF <= 0 || p.Len <= 0 {
			return fmt.Errorf("point (tf %d, len %d) is not positive", p.TF, p.Len)
		}
		if i > 0 && (dir*(p.TF-pts[i-1].TF) < 1 || dir*(p.Len-pts[i-1].Len) < 1) {
			return errors.New("points out of sweep order")
		}
	}
	return nil
}
