package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ir"
)

// Skyline encoding. A segment's manifest carries its terms'
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
// each for the first two fields. Decoding (Manifest.checkSkylines)
// rejects a Start no dictionary term has, a side over ir.SkylineCap, steps
// of 0 (points out of sweep order), points whose tf or len is not
// positive, and truncated or oversized varints.

// maxSkyValue bounds every decoded varint, so sums and differences of
// decoded values cannot overflow int64.
const maxSkyValue = 1 << 40

// encodeSkylines serializes sky — in posting row order, as ir builds it
// and dictRows.decode returns it — naming terms by their Start in terms.
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
// appendSkySide. Sweep order and positivity are dictRows.order's to check.
func (d *skyDecoder) side(pts []ir.SkyPoint, n, dir int64) []ir.SkyPoint {
	for i := int64(0); i < n && d.err == nil; i++ {
		p := ir.SkyPoint{TF: d.next(), Len: d.next()}
		if i > 0 {
			prev := pts[len(pts)-1]
			p = ir.SkyPoint{TF: prev.TF + dir*p.TF, Len: prev.Len + dir*p.Len}
		}
		pts = append(pts, p)
	}
	return pts
}

// termRows is a dictionary term and its posting count.
type termRows struct {
	term string
	rows int
}

// dictRows indexes a dictionary's terms with postings by the row their
// list starts at; empty holds the terms with no rows (which no build
// writes), which have no skyline and no Start of their own.
type dictRows struct {
	terms   map[string]ir.TermInfo
	byStart map[int]termRows
	empty   []termRows
}

// newDictRows indexes terms, refusing two that start at the same row.
func newDictRows(terms map[string]ir.TermInfo) (*dictRows, error) {
	d := &dictRows{terms: terms, byStart: make(map[int]termRows, len(terms))}
	for t, ti := range terms {
		r := termRows{t, ti.End - ti.Start}
		if r.rows <= 0 {
			d.empty = append(d.empty, r)
			continue
		}
		if other, dup := d.byStart[ti.Start]; dup {
			return nil, fmt.Errorf("terms %q and %q both start at row %d", other.term, t, ti.Start)
		}
		d.byStart[ti.Start] = r
	}
	return d, nil
}

// decode parses an encoded skyline string, naming each term by the row its
// list starts at; order validates the result.
func (d *dictRows) decode(data []byte) ([]ir.Skyline, error) {
	sky := make([]ir.Skyline, 0, len(d.terms))
	dec := &skyDecoder{data: data}
	// Every point takes at least two bytes, so pts never reallocates and
	// the decoded sides can share it.
	pts := make([]ir.SkyPoint, 0, len(data)/2)
	end := 0
	for len(dec.data) > 0 && dec.err == nil {
		start, counts := end+int(dec.next()), dec.next()
		if dec.err != nil {
			break
		}
		r, ok := d.byStart[start]
		if !ok {
			return nil, fmt.Errorf("skyline for row %d, where no dictionary term starts", start)
		}
		if counts >= ir.SkylineCap*ir.SkylineCap {
			return nil, fmt.Errorf("term %q: a skyline side over %d points", r.term, ir.SkylineCap)
		}
		end = start + r.rows
		lo := len(pts)
		pts = dec.side(pts, counts/ir.SkylineCap+1, -1)
		mid := len(pts)
		pts = dec.side(pts, counts%ir.SkylineCap+1, 1)
		sky = append(sky, ir.Skyline{Term: r.term, Upper: pts[lo:mid:mid], Lower: pts[mid:len(pts):len(pts)]})
	}
	return sky, dec.err
}

// order validates sky — skylines in posting row order, at most one per
// term — against the dictionary and returns every dictionary term with
// its posting count: the terms of sky first, in the same order, then the
// terms without a skyline. It consumes d.
func (d *dictRows) order(sky []ir.Skyline) ([]termRows, error) {
	byRow := make([]termRows, 0, len(d.terms))
	end := 0
	for _, s := range sky {
		ti := d.terms[s.Term]
		r, ok := d.byStart[ti.Start]
		if !ok || r.term != s.Term {
			return nil, fmt.Errorf("skyline for term %q, which has no postings or an earlier skyline", s.Term)
		}
		if ti.Start < end {
			return nil, fmt.Errorf("term %q: skyline out of posting row order", s.Term)
		}
		if err := checkSkySide(s.Upper, -1); err != nil {
			return nil, fmt.Errorf("term %q upper skyline: %v", s.Term, err)
		}
		if err := checkSkySide(s.Lower, 1); err != nil {
			return nil, fmt.Errorf("term %q lower skyline: %v", s.Term, err)
		}
		delete(d.byStart, ti.Start)
		byRow = append(byRow, r)
		end = ti.End
	}
	for _, r := range d.byStart {
		byRow = append(byRow, r)
	}
	return append(byRow, d.empty...), nil
}

// checkSkySide checks one side of a skyline: 1..ir.SkylineCap points, each
// positive, each next one stepping by at least 1 in both tf and len in
// direction dir (as in appendSkySide).
func checkSkySide(pts []ir.SkyPoint, dir int64) error {
	if len(pts) < 1 || len(pts) > ir.SkylineCap {
		return fmt.Errorf("%d points, want 1 to %d", len(pts), ir.SkylineCap)
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

// checkSkylines validates the manifest's skylines against its dictionary
// and derives byRow. A decoded manifest has only the encoding, Skylines,
// which it decodes into skylines first; a writer's manifest carries the
// built skylines already, whose encoding Skylines is. No skylines — none
// encoded, or none built — leave both fields nil.
func (m *Manifest) checkSkylines() error {
	if len(m.skylines) == 0 && len(m.Skylines) == 0 {
		m.skylines, m.byRow = nil, nil
		return nil
	}
	d, err := newDictRows(m.Terms)
	if err != nil {
		return err
	}
	if len(m.skylines) == 0 {
		if m.skylines, err = d.decode(m.Skylines); err != nil {
			return err
		}
	}
	m.byRow, err = d.order(m.skylines)
	return err
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
