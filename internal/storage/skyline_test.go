package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/primitives"
)

// skylineTestDocs generates documents over a vocabulary chosen to hit every
// skyline edge: "common" is in every document (with f_t = N it has idf 0),
// t0..t39 are Zipf-skewed, each "solo<d>" has one posting, the "twin"
// documents repeat one (tf, len) pair exactly, and "stair" has 70 postings
// whose tf and length both rise, so all 70 sit on both of its skylines —
// over ir.SkylineCap. Without stair, those 70 documents are random ones.
func skylineTestDocs(rng *rand.Rand, prefix string, stair bool) []corpus.Doc {
	n := 90 + rng.Intn(60)
	docs := make([]corpus.Doc, n)
	for d := range docs {
		var toks []string
		add := func(term string, times int) {
			for i := 0; i < times; i++ {
				toks = append(toks, term)
			}
		}
		add("common", 1+rng.Intn(3))
		switch {
		case d < 70 && stair:
			add("stair", d+1)
			add("pad", 100+10*(d+1)-len(toks))
		case d >= 70 && d < 80:
			add("twin", 2)
			add("pad", 7)
		default:
			for k := rng.Intn(40); k > 0; k-- {
				add(fmt.Sprintf("t%d", int(rng.ExpFloat64()*6)%40), 1)
			}
			if d%3 == 0 {
				add(fmt.Sprintf("solo%d", d), 1+rng.Intn(4))
			}
		}
		rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
		docs[d] = corpus.Doc{Name: fmt.Sprintf("%s-%04d", prefix, d), Tokens: toks}
	}
	return docs
}

// bruteSkyline applies the skyline definition to a term's (tf, len) pairs
// directly: a distinct pair is on the upper side unless another has
// tf' ≥ tf and len' ≤ len, on the lower side unless another has tf' ≤ tf
// and len' ≥ len.
func bruteSkyline(pairs []ir.SkyPoint) (upper, lower []ir.SkyPoint) {
	slices.SortFunc(pairs, func(a, b ir.SkyPoint) int {
		if a.TF != b.TF {
			return int(a.TF - b.TF)
		}
		return int(a.Len - b.Len)
	})
	pairs = slices.Compact(pairs)
	for _, p := range pairs {
		up, low := true, true
		for _, q := range pairs {
			if q != p && q.TF >= p.TF && q.Len <= p.Len {
				up = false
			}
			if q != p && q.TF <= p.TF && q.Len >= p.Len {
				low = false
			}
		}
		if up {
			upper = append(upper, p)
		}
		if low {
			lower = append(lower, p)
		}
	}
	slices.Reverse(upper)
	return upper, lower
}

// checkStoredSkylines requires segment seg's manifest to hold exactly the
// skylines the definition gives for its postings: every term under the cap
// with its two sides, no term over it, and every term in byRow.
func checkStoredSkylines(t *testing.T, dir, seg string) *Manifest {
	t.Helper()
	m, err := readManifest(dir, seg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := openSegment(dir, seg, m, colbm.NewManager(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	lenCol, err := ix.D.Column("len")
	if err != nil {
		t.Fatal(err)
	}
	var lens []int64
	if err := scanInt64Column(lenCol, func(v []int64) { lens = append(lens, v...) }); err != nil {
		t.Fatal(err)
	}
	pairs := map[string][]ir.SkyPoint{}
	terms := make([]string, 0, len(m.Terms))
	for term := range m.Terms {
		terms = append(terms, term)
	}
	if err := scanPostings(ix, terms, -ix.DocBase(), func(term string, docids, tfs []int64) {
		for i := range docids {
			pairs[term] = append(pairs[term], ir.SkyPoint{TF: tfs[i], Len: lens[docids[i]]})
		}
	}); err != nil {
		t.Fatal(err)
	}
	stored := map[string]ir.Skyline{}
	for _, s := range m.skylines {
		stored[s.Term] = s
	}
	overCap := 0
	for term, ps := range pairs {
		upper, lower := bruteSkyline(ps)
		got, ok := stored[term]
		if len(upper) > ir.SkylineCap || len(lower) > ir.SkylineCap {
			overCap++
			if ok {
				t.Errorf("%s: term %q has %d/%d skyline points, over the cap, but stores a skyline", seg, term, len(upper), len(lower))
			}
			continue
		}
		if !ok || !reflect.DeepEqual(got.Upper, upper) || !reflect.DeepEqual(got.Lower, lower) {
			t.Errorf("%s: term %q stores skyline %+v, want upper %v lower %v", seg, term, got, upper, lower)
		}
	}
	if len(m.byRow) != len(m.Terms) || len(m.skylines) != len(m.Terms)-overCap {
		t.Errorf("%s: %d skylines, %d terms by row, want %d and %d", seg, len(m.skylines), len(m.byRow), len(m.Terms)-overCap, len(m.Terms))
	}
	return m
}

// stripSkylines rewrites every segment of dir without its skylines —
// T again with every skyline value empty — the shape of a directory
// written before they existed.
func stripSkylines(t *testing.T, dir string) {
	t.Helper()
	sm, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sm.Segments {
		m, err := readManifest(dir, e.Name)
		if err != nil {
			t.Fatal(err)
		}
		segDir := filepath.Join(dir, e.Name)
		fs, err := NewFileStore(segDir)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ir.BuildDictionary(m.T.Name, fs, colbm.NewManager(0), m.Config.ChunkLen, m.Terms, nil)
		fs.Close()
		if err != nil {
			t.Fatal(err)
		}
		bare := *m
		bare.T = tab.Stored()
		if _, err := writeManifest(segDir, &bare); err != nil {
			t.Fatal(err)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSkylineBoundsMatchScan is the exactness property of skyline bounds:
// under random statistics — idf 0 (f_t = N), b = 0, random k1, avgdl and
// N — the Global-By-Value bounds folded from stored skylines equal, bit for
// bit, both the scan of a directory with every skyline stripped and a brute
// fold of Weight over every posting. The stored skylines themselves match
// the definition applied to the postings, for built, merged and appended
// segments, and a directory appended five times commits the same bounds
// with and without them.
func TestSkylineBoundsMatchScan(t *testing.T) {
	t.Run("random-statistics", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var batches []*corpus.Collection
			for i := 0; i < 3; i++ {
				// The appended batch has no stair, so only the segments'
				// postings can supply its extremes.
				c, err := corpus.FromDocs(skylineTestDocs(rng, fmt.Sprintf("s%d-b%d", seed, i), i < 2))
				if err != nil {
					t.Fatal(err)
				}
				batches = append(batches, c)
			}
			withSky, stripped := filepath.Join(t.TempDir(), "sky"), filepath.Join(t.TempDir(), "bare")
			for _, dir := range []string{withSky, stripped} {
				for _, b := range batches[:2] {
					if _, err := AppendSegment(dir, b, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			stripSkylines(t, stripped)
			sm, err := ReadSegments(withSky)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range sm.Segments {
				if m := checkStoredSkylines(t, withSky, e.Name); len(m.skylines) == len(m.Terms) {
					t.Fatalf("segment %s stores a skyline for every term: the over-cap fallback is not exercised", e.Name)
				}
			}

			// Random statistics, the same for both directories: N, avgdl, k1
			// and b, and per term an f_t in [its postings, N] — often N. Two
			// more f_t assignments make the over-cap "stair" hold the max
			// (every other term at idf 0) and the min (it alone at idf 0),
			// so its scan cannot be skipped unnoticed.
			counts := map[string]int{}
			for _, b := range batches {
				for id, list := range b.Postings {
					counts[b.TermStrings[id]] += len(list)
				}
			}
			total := 0
			for _, b := range batches {
				total += len(b.DocLens)
			}
			n := total + 1 + rng.Intn(3*total)
			random, stairMax, stairMin := map[string]int{}, map[string]int{}, map[string]int{}
			for term, c := range counts {
				switch rng.Intn(4) {
				case 0:
					random[term] = n
				case 1:
					random[term] = c
				default:
					random[term] = c + rng.Intn(n-c+1)
				}
				stairMax[term], stairMin[term] = n, c
			}
			random["common"] = n
			stairMax["stair"], stairMin["stair"] = counts["stair"], n
			for _, df := range []map[string]int{random, stairMax, stairMin} {
				for _, b := range []float64{0, 0.75, rng.Float64()} {
					k1 := []float64{1.2, 0.1 + 2*rng.Float64()}[rng.Intn(2)]
					avgdl := 1 + 300*rng.Float64()
					bounds := func(dir string) (lo, hi float64) {
						t.Helper()
						dsm, err := ReadSegments(dir)
						if err != nil {
							t.Fatal(err)
						}
						st, err := collectStats(dir, dsm)
						if err != nil {
							t.Fatal(err)
						}
						st.addBatch(batches[2])
						st.params.K1, st.params.B, st.params.AvgDocLn, st.params.NumDocs = k1, b, avgdl, float64(n)
						for term, i := range st.slot {
							st.df[i] = df[term]
						}
						b, err := st.scoreBounds(batches[2])
						if err != nil || !b.ok {
							t.Fatalf("scoreBounds: %v (ok %v)", err, b.ok)
						}
						return b.lo, b.hi
					}
					skyLo, skyHi := bounds(withSky)
					scanLo, scanHi := bounds(stripped)
					p := primitives.BM25Params{K1: k1, B: b, NumDocs: float64(n), AvgDocLn: avgdl}
					bruteLo, bruteHi := math.Inf(1), math.Inf(-1)
					for _, c := range batches {
						for id, list := range c.Postings {
							for _, post := range list {
								foldBounds(p.Weight(float64(post.TF), float64(c.DocLens[post.DocID]), float64(df[c.TermStrings[id]])), &bruteLo, &bruteHi)
							}
						}
					}
					if !sameBits(skyLo, scanLo) || !sameBits(skyHi, scanHi) || !sameBits(skyLo, bruteLo) || !sameBits(skyHi, bruteHi) {
						t.Errorf("seed %d k1=%v b=%v avgdl=%v N=%d: skyline bounds [%v, %v], scan [%v, %v], every posting [%v, %v]",
							seed, k1, b, avgdl, n, skyLo, skyHi, scanLo, scanHi, bruteLo, bruteHi)
					}
				}
			}
		}
	})

	t.Run("merged", func(t *testing.T) {
		dir := t.TempDir()
		appendInBatches(t, dir, segTestCollection(t), 3)
		sm, err := ReadSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := sm.Names()
		into, err := AllocSegmentDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		epoch, err := BuildMergedSegment(dir, names, into, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CommitMerge(dir, names, into, epoch, nil); err != nil {
			t.Fatal(err)
		}
		if m := checkStoredSkylines(t, dir, into); len(m.skylines) == 0 {
			t.Fatal("merged segment stores no skylines")
		}
	})

	t.Run("appended-five-times", func(t *testing.T) {
		coll := segTestCollection(t)
		withSky, stripped := filepath.Join(t.TempDir(), "sky"), filepath.Join(t.TempDir(), "bare")
		docs := len(coll.DocLens)
		for i := 0; i < 5; i++ {
			batch, err := coll.Slice(i*docs/5, (i+1)*docs/5)
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range []string{withSky, stripped} {
				if _, err := AppendSegment(dir, batch, nil); err != nil {
					t.Fatal(err)
				}
			}
			stripSkylines(t, stripped)
			a, err := ReadSegments(withSky)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ReadSegments(stripped)
			if err != nil {
				t.Fatal(err)
			}
			if !a.HasBounds || !b.HasBounds || !sameBits(a.ScoreLo, b.ScoreLo) || !sameBits(a.ScoreHi, b.ScoreHi) {
				t.Errorf("append %d: bounds from skylines %v [%v, %v], from the scan %v [%v, %v]",
					i+1, a.HasBounds, a.ScoreLo, a.ScoreHi, b.HasBounds, b.ScoreLo, b.ScoreHi)
			}
		}
		sm, err := ReadSegments(withSky)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range sm.Segments {
			checkStoredSkylines(t, withSky, e.Name)
		}
	})
}

// TestDecodeManifestRejectsBadSkylines: skylines come off disk and off the
// wire with the rest of a manifest, so decodeManifest refuses, as
// ErrBadManifest, a format-1 manifest with a skyline for a term the
// dictionary lacks, a point with tf or len ≤ 0, points out of sweep order,
// a side over ir.SkylineCap, and a truncated encoding. (Format 2's
// skylines are T's, which ir.ReadDictionary checks the same way.)
func TestDecodeManifestRejectsBadSkylines(t *testing.T) {
	dir := t.TempDir()
	_, ix := buildSmallIndex(t)
	if err := WriteSegmentedIndex(dir, []*ir.Index{ix}); err != nil {
		t.Fatal(err)
	}
	sm, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := sm.Segments[0].Name
	m, err := readManifest(dir, seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.skylines) == 0 {
		t.Fatal("a quantized segment decoded with no skylines")
	}
	term := m.skylines[0].Term
	stair := func(n int, dir int64) []ir.SkyPoint {
		pts := make([]ir.SkyPoint, n)
		for i := range pts {
			pts[i] = ir.SkyPoint{TF: int64(n) + dir*int64(i), Len: 1000 + dir*int64(i)}
		}
		return pts
	}
	one := []ir.SkyPoint{{TF: 1, Len: 5}}
	cut := func(b []byte) []byte { return b[:len(b)-1] }
	encode := func(terms map[string]ir.TermInfo, s ir.Skyline) []byte {
		return encodeSkylines(terms, []ir.Skyline{s})
	}
	for name, data := range map[string][]byte{
		"term not in the dictionary": encode(map[string]ir.TermInfo{"absent": {Start: 1 << 30}}, ir.Skyline{Term: "absent", Upper: one, Lower: one}),
		"tf 0":                       encode(m.Terms, ir.Skyline{Term: term, Upper: []ir.SkyPoint{{TF: 0, Len: 5}}, Lower: one}),
		"len 0":                      encode(m.Terms, ir.Skyline{Term: term, Upper: one, Lower: []ir.SkyPoint{{TF: 1, Len: 0}}}),
		"upper out of sweep order":   encode(m.Terms, ir.Skyline{Term: term, Upper: []ir.SkyPoint{{TF: 3, Len: 5}, {TF: 3, Len: 4}}, Lower: one}),
		"lower out of sweep order":   encode(m.Terms, ir.Skyline{Term: term, Upper: one, Lower: []ir.SkyPoint{{TF: 1, Len: 5}, {TF: 2, Len: 5}}}),
		"upper falls below tf 1":     encode(m.Terms, ir.Skyline{Term: term, Upper: []ir.SkyPoint{{TF: 2, Len: 9}, {TF: -1, Len: 3}}, Lower: one}),
		"side over the cap":          encode(m.Terms, ir.Skyline{Term: term, Upper: stair(ir.SkylineCap+1, -1), Lower: one}),
		"truncated":                  cut(encode(m.Terms, m.skylines[0])),
	} {
		raw := encodeFormatV1(t, m, data)
		if _, err := decodeManifest(dir, seg, raw); !errors.Is(err, ErrBadManifest) || !strings.Contains(err.Error(), "skylines") {
			t.Errorf("%s: decodeManifest returned %v, want ErrBadManifest about skylines", name, err)
		}
	}
	// A full cap on both sides is accepted.
	raw := encodeFormatV1(t, m, encode(m.Terms, ir.Skyline{Term: term, Upper: stair(ir.SkylineCap, -1), Lower: stair(ir.SkylineCap, 1)}))
	if got, err := decodeManifest(dir, seg, raw); err != nil || len(got.skylines) != 1 || len(got.byRow) != len(m.Terms) {
		t.Errorf("a skyline with %d points a side: %v", ir.SkylineCap, err)
	}
}

// TestApproxBoundsFieldsIgnored: SEGMENTS.json files written while the
// approximate-bounds mode existed carry bounds_drift, has_obs, obs_lo and
// obs_hi. They still decode, an append onto them commits the exact bounds
// a fresh directory would, and the next commit drops the fields.
func TestApproxBoundsFieldsIgnored(t *testing.T) {
	coll := segTestCollection(t)
	fresh, old := filepath.Join(t.TempDir(), "fresh"), filepath.Join(t.TempDir(), "old")
	appendInBatches(t, fresh, coll, 2)
	appendRanges(t, old, coll, 0, len(coll.DocLens)/2)
	data, err := os.ReadFile(segmentsPath(old))
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(data), `"segments":`, `"bounds_drift":0.1,"has_obs":true,"obs_lo":0.5,"obs_hi":2.5,"segments":`, 1)
	if legacy == string(data) {
		t.Fatal("could not plant the legacy fields")
	}
	if err := os.WriteFile(segmentsPath(old), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeSegments(old, []byte(legacy)); err != nil {
		t.Fatalf("a manifest with approximate-bounds fields: %v", err)
	}
	appendRanges(t, old, coll, len(coll.DocLens)/2, len(coll.DocLens))
	a, err := ReadSegments(fresh)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadSegments(old)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(a.ScoreLo, b.ScoreLo) || !sameBits(a.ScoreHi, b.ScoreHi) {
		t.Errorf("bounds after appending onto legacy fields [%v, %v], fresh directory [%v, %v]", b.ScoreLo, b.ScoreHi, a.ScoreLo, a.ScoreHi)
	}
	after, err := os.ReadFile(segmentsPath(old))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"bounds_drift", "has_obs", "obs_lo", "obs_hi"} {
		if strings.Contains(string(after), field) {
			t.Errorf("the commit after an append kept %q", field)
		}
	}
}
