package compress

// Shared machinery for the patched exception layout. All three schemes
// reduce to the same problem: each position holds either a small code or an
// exception, and the exception positions must form a linked list whose
// links (stored in the code slots of exception positions) fit the code
// width. Encoder.buildLayout performs that reduction.

// Encoder holds the working buffers of the PFOR, PFOR-DELTA and PDICT
// encoders and reuses them from block to block: a column encoded chunk by
// chunk through one Encoder allocates nothing once its buffers have grown
// to the chunk length. The *Block an Encoder method returns, and every
// slice in it, belongs to the encoder and stays valid only until its next
// call: marshal it (AppendMarshal) before encoding the next block. The
// zero value is ready to use. An Encoder is not safe for concurrent use.
type Encoder struct {
	bl Block

	deltas   []int64  // PFOR-DELTA: the consecutive differences
	codes    []uint32 // the code of every position
	codeable []bool   // whether the position's value fits the code range
	excPos   []int32  // exception positions, in encounter order
	excVals  []int64
	entries  []Entry
	words    []uint64
	boundary []int64
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// detach copies a block an Encoder returned out of it, for the one-shot
// Encode functions: the copy shares the block's sections but not the
// encoder's working buffers, which a retained block would otherwise keep
// reachable.
func detach(bl *Block, err error) (*Block, error) {
	if err != nil {
		return nil, err
	}
	out := *bl
	return &out, nil
}

// codeBuffers returns the per-position code and codeable buffers for an
// n-value block; the scheme fills both for every position.
func (e *Encoder) codeBuffers(n int) ([]uint32, []bool) {
	e.codes, e.codeable = resize(e.codes, n), resize(e.codeable, n)
	return e.codes, e.codeable
}

// finish reduces the filled code buffers to a block: codes[i] is the code
// for position i if codeable[i], and logical[i] is the value to store in
// the exception section otherwise. For forced exceptions (codeable
// positions sacrificed to keep chain gaps representable) logical[i] is
// stored even though codeable[i] was true. The caller sets the
// scheme-specific fields (Base, First, Boundary, Dict) on the result.
func (e *Encoder) finish(scheme Scheme, layout Layout, b uint, logical []int64) *Block {
	e.buildLayout(b, layout, logical)
	n := len(e.codes)
	e.words = resize(e.words, PackedWords(n, b))
	clear(e.words)
	Pack(e.words, e.codes, b)
	e.bl = Block{
		Scheme:   scheme,
		Layout:   layout,
		N:        n,
		B:        b,
		Words:    e.words,
		Entries:  e.entries,
		ExcVals:  e.excVals,
		excWidth: chooseExcWidth(e.excVals),
	}
	return &e.bl
}

// buildLayout turns the code buffers into the final code stream, exception
// list and entry points for either layout discipline.
//
// For Patched, exception positions receive the gap to the next exception
// (the linked list of Figure 2), with forced exceptions inserted whenever a
// gap would exceed the largest representable link (2^b - 1), including the
// virtual terminator at position n so the decode loop `i += code[i]`
// always exits past the end.
//
// For Naive, exception positions receive the reserved MAXCODE = 2^b - 1
// and no forced exceptions are needed.
func (e *Encoder) buildLayout(b uint, layout Layout, logical []int64) {
	codes, codeable := e.codes, e.codeable
	n := len(codes)
	limit := uint32(1)<<b - 1 // MAXCODE for Naive; max chain link for Patched

	excPos, excVals := e.excPos[:0], e.excVals[:0]
	if layout == Naive {
		for i := 0; i < n; i++ {
			if !codeable[i] {
				codes[i] = limit
				excPos = append(excPos, int32(i))
				excVals = append(excVals, logical[i])
			}
		}
	} else {
		lastExc := -1
		force := func(upto int) {
			// Insert forced exceptions so the chain reaches upto with
			// every gap <= limit.
			for upto-lastExc > int(limit) {
				f := lastExc + int(limit)
				excPos = append(excPos, int32(f))
				excVals = append(excVals, logical[f])
				lastExc = f
			}
		}
		for i := 0; i < n; i++ {
			if codeable[i] {
				continue
			}
			if lastExc >= 0 {
				force(i)
			}
			excPos = append(excPos, int32(i))
			excVals = append(excVals, logical[i])
			lastExc = i
		}
		if lastExc >= 0 {
			force(n) // terminator: last link must jump past the end
		}
		// Overwrite exception positions with their chain links.
		for j, p := range excPos {
			next := int32(n)
			if j+1 < len(excPos) {
				next = excPos[j+1]
			}
			codes[p] = uint32(next - p)
		}
	}

	// Entry points: for every EntryStride boundary, the first exception at
	// or after it and that exception's encounter-order index.
	nEntries := (n + EntryStride - 1) / EntryStride
	entries := resize(e.entries, nEntries)
	j := 0
	for k := 0; k < nEntries; k++ {
		boundary := int32(k * EntryStride)
		for j < len(excPos) && excPos[j] < boundary {
			j++
		}
		if j < len(excPos) {
			entries[k] = Entry{FirstExc: excPos[j], ExcIdx: int32(j)}
		} else {
			entries[k] = Entry{FirstExc: int32(n), ExcIdx: int32(len(excVals))}
		}
	}
	e.excPos, e.excVals, e.entries = excPos, excVals, entries
}

// codeableMax returns the largest code offset the layout can store for
// data: Patched uses the full range (exception positions are identified by
// chain membership, not value), Naive reserves the top code as MAXCODE.
func codeableMax(b uint, layout Layout) int64 {
	if layout == Naive {
		return int64(1)<<b - 2
	}
	return int64(1)<<b - 1
}

// chooseExcWidth returns 4 when every exception value fits in an int32
// (the common case for docids and term frequencies, and what lets the
// measured bits-per-tuple match the paper's 32-bit baseline), 8 otherwise.
func chooseExcWidth(excVals []int64) int {
	for _, v := range excVals {
		if v < -1<<31 || v >= 1<<31 {
			return 8
		}
	}
	return 4
}
