package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ir"
)

// Skyline encoding. A quantized segment's manifest carries its terms'
// skylines (ir.Skyline) as one varint string, Manifest.Skylines. Terms
// appear in posting row order and are named by the row their list starts
// at (TermInfo.Start). Per term that has a skyline:
//
//	uvarint  Start − End of the previous term here (the first: Start)
//	uvarint  (upper point count − 1)·ir.SkylineCap + lower point count − 1
//	upper points, two uvarints each: the first point's tf and len, then
//	         each next point's decrease in both
//	lower points, two uvarints each: the first point's tf and len, then
//	         each next point's increase in both
//
// Adjacent terms and short skylines — nearly all of them — cost one byte
// each for the first two fields. decodeSkylines rejects a Start no
// dictionary term has, a side over ir.SkylineCap, steps of 0 (points out
// of sweep order), points whose tf or len is not positive, and truncated
// or oversized varints.

// maxSkyValue bounds every decoded varint, so sums and differences of
// decoded values cannot overflow int64.
const maxSkyValue = 1 << 40

// encodeSkylines serializes sky — in posting row order, as ir builds it
// and decodeSkylines returns it — naming terms by their Start in terms.
func encodeSkylines(terms map[string]ir.TermInfo, sky []ir.Skyline) []byte {
	var buf []byte
	end := 0
	for _, s := range sky {
		ti := terms[s.Term]
		buf = binary.AppendUvarint(buf, uint64(ti.Start-end))
		end = ti.End
		buf = binary.AppendUvarint(buf, uint64((len(s.Upper)-1)*ir.SkylineCap+len(s.Lower)-1))
		buf = appendSkySide(buf, s.Upper, -1)
		buf = appendSkySide(buf, s.Lower, 1)
	}
	return buf
}

// appendSkySide encodes one side's points; dir is the sign of its steps
// (−1 for the descending upper side, +1 for the ascending lower side).
func appendSkySide(buf []byte, pts []ir.SkyPoint, dir int64) []byte {
	for i, p := range pts {
		tf, l := p.TF, p.Len
		if i > 0 {
			tf, l = dir*(p.TF-pts[i-1].TF), dir*(p.Len-pts[i-1].Len)
		}
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(tf)), uint64(l))
	}
	return buf
}

// skyDecoder reads the varints of an encoded skyline string.
type skyDecoder struct {
	data []byte
	err  error
}

func (d *skyDecoder) next() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 || v > maxSkyValue {
		d.err = errors.New("truncated or oversized varint")
		return 0
	}
	d.data = d.data[n:]
	return int64(v)
}

// side decodes n points of one skyline side onto pts; dir is as in
// appendSkySide.
func (d *skyDecoder) side(pts []ir.SkyPoint, n, dir int64) ([]ir.SkyPoint, error) {
	for i := int64(0); i < n && d.err == nil; i++ {
		p := ir.SkyPoint{TF: d.next(), Len: d.next()}
		if i > 0 {
			if p.TF < 1 || p.Len < 1 {
				return pts, errors.New("points out of sweep order")
			}
			prev := pts[len(pts)-1]
			p = ir.SkyPoint{TF: prev.TF + dir*p.TF, Len: prev.Len + dir*p.Len}
		}
		if d.err == nil && (p.TF <= 0 || p.Len <= 0) {
			return pts, fmt.Errorf("point (tf %d, len %d) is not positive", p.TF, p.Len)
		}
		pts = append(pts, p)
	}
	return pts, d.err
}

// termRows is a dictionary term and its posting count.
type termRows struct {
	term string
	rows int
}

// decodeSkylines parses and validates an encoded skyline string against
// the dictionary terms. It returns the skylines in posting row order and
// every dictionary term with its posting count: the terms of sky first,
// in the same order, then the terms without a skyline. Empty data decodes
// to neither.
func decodeSkylines(terms map[string]ir.TermInfo, data []byte) (sky []ir.Skyline, byRow []termRows, err error) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	// Terms with no rows (which no build writes) have no skyline and no
	// Start of their own.
	byStart := make(map[int]termRows, len(terms))
	var empty []termRows
	for t, ti := range terms {
		r := termRows{t, ti.End - ti.Start}
		if r.rows <= 0 {
			empty = append(empty, r)
			continue
		}
		if other, dup := byStart[ti.Start]; dup {
			return nil, nil, fmt.Errorf("terms %q and %q both start at row %d", other.term, t, ti.Start)
		}
		byStart[ti.Start] = r
	}
	byRow = make([]termRows, 0, len(terms))
	sky = make([]ir.Skyline, 0, len(terms))
	d := &skyDecoder{data: data}
	// Every point takes at least two bytes, so pts never reallocates and
	// the decoded sides can share it.
	pts := make([]ir.SkyPoint, 0, len(data)/2)
	end := 0
	for len(d.data) > 0 && d.err == nil {
		start, counts := end+int(d.next()), d.next()
		if d.err != nil {
			break
		}
		r, ok := byStart[start]
		if !ok {
			return nil, nil, fmt.Errorf("skyline for row %d, where no dictionary term starts", start)
		}
		if counts >= ir.SkylineCap*ir.SkylineCap {
			return nil, nil, fmt.Errorf("term %q: a skyline side over %d points", r.term, ir.SkylineCap)
		}
		delete(byStart, start)
		byRow = append(byRow, r)
		end = start + r.rows
		lo := len(pts)
		if pts, err = d.side(pts, counts/ir.SkylineCap+1, -1); err != nil {
			return nil, nil, fmt.Errorf("term %q upper skyline: %v", r.term, err)
		}
		mid := len(pts)
		if pts, err = d.side(pts, counts%ir.SkylineCap+1, 1); err != nil {
			return nil, nil, fmt.Errorf("term %q lower skyline: %v", r.term, err)
		}
		sky = append(sky, ir.Skyline{Term: r.term, Upper: pts[lo:mid:mid], Lower: pts[mid:len(pts):len(pts)]})
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	for _, r := range byStart {
		byRow = append(byRow, r)
	}
	return sky, append(byRow, empty...), nil
}

// foldBounds widens [lo, hi] to hold w.
func foldBounds(w float64, lo, hi *float64) {
	if w < *lo {
		*lo = w
	}
	if w > *hi {
		*hi = w
	}
}
