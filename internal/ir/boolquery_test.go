package ir

import (
	"reflect"
	"testing"
)

func TestParseBoolQuery(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"information", "information"},
		{"information AND retrieval", "(information AND retrieval)"},
		{"information retrieval", "(information AND retrieval)"}, // adjacency = AND
		{"a OR b", "(a OR b)"},
		{"a AND b OR c", "((a AND b) OR c)"},   // AND binds tighter
		{"a OR b AND c", "(a OR (b AND c))"},   //
		{"a AND (b OR c)", "(a AND (b OR c))"}, // the paper's example shape
		{"(a OR b) AND c", "((a OR b) AND c)"}, //
		{"a b c", "((a AND b) AND c)"},         // left associative
		{"a OR b OR c", "((a OR b) OR c)"},     //
		{"A and B", "(a AND b)"},               // case-insensitive keywords, lowered terms
		{"information AND (storing OR retrieval)", "(information AND (storing OR retrieval))"},
	}
	for _, c := range cases {
		e, err := ParseBoolQuery(c.in)
		if err != nil {
			t.Errorf("parse %q: %v", c.in, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("parse %q = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseBoolQueryErrors(t *testing.T) {
	for _, in := range []string{
		"", "AND", "a AND", "a OR", "(a", "a)", "()", "a AND )", "OR a",
	} {
		if _, err := ParseBoolQuery(in); err == nil {
			t.Errorf("parse %q succeeded", in)
		}
	}
}

// SearchBool must agree with the set-algebra oracle over the raw postings.
func TestSearchBoolAgainstOracle(t *testing.T) {
	c, ix := getIndex(t)
	s := NewSearcher(ix, 0)

	// Pick three known terms with non-trivial posting lists.
	var terms []string
	for term, ti := range ix.Terms {
		if ti.Ftd > 30 && ti.Ftd < 2000 {
			terms = append(terms, term)
		}
		if len(terms) == 3 {
			break
		}
	}
	if len(terms) < 3 {
		t.Skip("collection too small for three mid-frequency terms")
	}
	docsOf := func(term string) map[int64]bool {
		set := map[int64]bool{}
		tid := -1
		for i, str := range c.TermStrings {
			if str == term {
				tid = i
				break
			}
		}
		for _, p := range c.Postings[tid] {
			set[p.DocID] = true
		}
		return set
	}
	a, b, cc := docsOf(terms[0]), docsOf(terms[1]), docsOf(terms[2])

	queryStr := terms[0] + " AND (" + terms[1] + " OR " + terms[2] + ")"
	expr, err := ParseBoolQuery(queryStr)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := s.SearchBool(expr, 1<<30)
	if err != nil {
		t.Fatal(err)
	}

	want := map[int64]bool{}
	for d := range a {
		if b[d] || cc[d] {
			want[d] = true
		}
	}
	if len(results) != len(want) {
		t.Fatalf("query %q: got %d docs, oracle %d", queryStr, len(results), len(want))
	}
	prev := int64(-1)
	for _, r := range results {
		if !want[r.DocID] {
			t.Fatalf("doc %d not in oracle set", r.DocID)
		}
		if r.DocID <= prev {
			t.Fatal("results not in ascending docid order")
		}
		prev = r.DocID
	}
}

func TestSearchBoolLimitStopsEarly(t *testing.T) {
	_, ix := getIndex(t)
	s := NewSearcher(ix, 0)
	// A frequent single term, limited to 5 results.
	var term string
	best := 0
	for tm, ti := range ix.Terms {
		if ti.Ftd > best {
			best, term = ti.Ftd, tm
		}
	}
	expr, err := ParseBoolQuery(term)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.SearchBool(expr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("limit 5 returned %d", len(res))
	}
	for _, r := range res {
		if r.Name == "" {
			t.Error("names not resolved")
		}
	}
}

func TestSearchBoolUnknownTerm(t *testing.T) {
	_, ix := getIndex(t)
	s := NewSearcher(ix, 0)
	known := ""
	for tm := range ix.Terms {
		known = tm
		break
	}
	// AND with unknown term: empty.
	expr, err := ParseBoolQuery(known + " AND zzzznotaterm")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.SearchBool(expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("AND with unknown term: %d results", len(res))
	}
	// OR with unknown term: falls back to the known term's list.
	expr, err = ParseBoolQuery(known + " OR zzzznotaterm")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = s.SearchBool(expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("OR with unknown term returned nothing")
	}
}

// TestBoolStrategiesMatchSearchBool: the BoolAND and BoolOR strategies
// return exactly what SearchBool returns for the left-deep AND / OR chain of
// the query's terms — same documents, same order, same names — on a single
// segment and on a segmented snapshot, for unknown and duplicated terms,
// and for k below and far beyond the number of matches.
func TestBoolStrategiesMatchSearchBool(t *testing.T) {
	c, ix := getIndex(t)
	queries := [][]string{{"zzzznotaterm"}}
	for _, q := range append(c.PrecisionQueries(30, 85), c.EfficiencyQueries(60, 86)...) {
		queries = append(queries, q.Terms)
	}
	for _, q := range queries[1:6] {
		queries = append(queries,
			append(append([]string(nil), q...), "zzzznotaterm"),
			append(append([]string(nil), q...), q[0]))
	}
	chain := func(terms []string, or bool) BoolExpr {
		var e BoolExpr = &BoolTerm{Term: terms[0]}
		for _, term := range terms[1:] {
			if or {
				e = &BoolOr{L: e, R: &BoolTerm{Term: term}}
			} else {
				e = &BoolAnd{L: e, R: &BoolTerm{Term: term}}
			}
		}
		return e
	}
	for _, snap := range []*Snapshot{SingleSnapshot(ix), segmentedSnapshot(t, c)} {
		s := NewSnapshotSearcher(snap, 0)
		for _, terms := range queries {
			for _, k := range []int{1, 20, 1000, 100000} {
				for _, strat := range []Strategy{BoolAND, BoolOR} {
					got, _, err := s.Search(terms, k, strat)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := s.SearchBool(chain(terms, strat == BoolOR), k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%d segments, %v k=%d %v: Search %v != SearchBool %v",
							snap.NumSegments(), strat, k, terms, got, want)
					}
				}
			}
		}
	}
}
