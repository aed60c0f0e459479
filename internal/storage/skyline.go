package storage

import (
	"fmt"

	"repro/internal/ir"
)

// Format-1 skylines. A format-1 manifest carries its terms' skylines
// (ir.Skyline) as one varint string, the "skylines" field. Terms appear in
// posting row order and are named by the row their list starts at
// (TermInfo.Start). Per term that has a skyline:
//
//	uvarint  Start − End of the previous term here (the first: Start)
//	the skyline in ir.AppendSkyline's encoding
//
// Decoding (Manifest.decodeSkylines) rejects a Start no dictionary term
// has and whatever ir.SkylineReader rejects. Format 2 stores each term's
// skyline in T's skyline column instead (ir.ReadDictionary).

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

// decode parses a format-1 skyline string, naming each term by the row
// its list starts at; order validates the result.
func (d *dictRows) decode(data []byte) ([]ir.Skyline, error) {
	sky := make([]ir.Skyline, 0, len(d.terms))
	r := &ir.SkylineReader{Data: data}
	end := 0
	for len(r.Data) > 0 && r.Err == nil {
		start := end + int(r.Uvarint())
		if r.Err != nil {
			break
		}
		rows, ok := d.byStart[start]
		if !ok {
			return nil, fmt.Errorf("skyline for row %d, where no dictionary term starts", start)
		}
		end = start + rows.rows
		s := r.Skyline(rows.term)
		if r.Err != nil {
			return nil, fmt.Errorf("term %q: %v", rows.term, r.Err)
		}
		sky = append(sky, s)
	}
	return sky, r.Err
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
		delete(d.byStart, ti.Start)
		byRow = append(byRow, r)
		end = ti.End
	}
	for _, r := range d.byStart {
		byRow = append(byRow, r)
	}
	return append(byRow, d.empty...), nil
}

// decodeSkylines decodes and validates a format-1 manifest's skyline
// string against its dictionary and derives byRow. No skylines leave both
// fields nil.
func (m *Manifest) decodeSkylines(data []byte) error {
	m.skylines, m.byRow = nil, nil
	if len(data) == 0 {
		return nil
	}
	d, err := newDictRows(m.Terms)
	if err != nil {
		return err
	}
	if m.skylines, err = d.decode(data); err != nil {
		return err
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
