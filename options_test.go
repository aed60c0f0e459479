package repro

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/colbm"
	"repro/internal/storage"
)

// optionFixture is what every row of TestEveryOptionHasAnObservable works
// from: one small collection, its in-memory build, and a query with hits.
type optionFixture struct {
	coll  *Collection
	ix    *Index
	terms []string
}

// dir saves the fixture's index into a fresh one-segment directory.
func (f *optionFixture) dir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ix")
	if err := SaveIndex(dir, f.ix); err != nil {
		t.Fatal(err)
	}
	return dir
}

// threeSegments lays the collection out as a three-segment directory.
func (f *optionFixture) threeSegments(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "segix")
	n := len(f.coll.DocLens)
	for _, cut := range [][2]int{{0, n / 2}, {n / 2, 3 * n / 4}, {3 * n / 4, n}} {
		docs, err := f.coll.Docs(cut[0], cut[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := AppendSegment(dir, docs); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func (f *optionFixture) openDir(t *testing.T, dir string, opts ...Option) *Engine {
	t.Helper()
	eng, err := OpenDir(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func (f *optionFixture) open(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng, err := Open(f.coll, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func (f *optionFixture) search(t *testing.T, eng *Engine, req SearchRequest) SearchResponse {
	t.Helper()
	req.Terms, req.K = f.terms, 10
	resp, err := eng.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// servingManager is the buffer manager a persisted engine reads through.
func servingManager(t *testing.T, eng *Engine) *colbm.Manager {
	t.Helper()
	mgr, ok := eng.Index().Cache.(*colbm.Manager)
	if !ok {
		t.Fatalf("persisted engine reads through %T, want *colbm.Manager", eng.Index().Cache)
	}
	return mgr
}

// refused requires err to be a refusal naming the option.
func refused(t *testing.T, err error, option string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), option) {
		t.Errorf("want a refusal naming %s, got %v", option, err)
	}
}

// optionRows names, for every exported With* in options.go, the
// test-visible effect of setting it — the README tuning table's "shown by"
// column cites these rows. A row whose effect needs a scenario of its own
// asserts the option's refusal here and names the test that drives the
// scenario.
var optionRows = map[string]func(t *testing.T, f *optionFixture){
	// Manager.Budget() of the serving buffer manager, whichever entry point
	// opened it.
	"WithBufferPoolBytes": func(t *testing.T, f *optionFixture) {
		const n = 3 << 20
		for name, tc := range map[string]struct {
			opts []Option
			want int64
		}{
			"default":             {nil, 0},
			"WithBufferPoolBytes": {[]Option{WithBufferPoolBytes(n)}, n},
		} {
			dir := filepath.Join(t.TempDir(), "ix")
			eng := f.open(t, append(tc.opts, WithStorageDir(dir))...)
			if got := servingManager(t, eng).Budget(); got != tc.want {
				t.Errorf("%s: serving manager budget %d, want %d", name, got, tc.want)
			}
		}
		if got := servingManager(t, f.openDir(t, f.dir(t), WithBufferPoolBytes(n))).Budget(); got != n {
			t.Errorf("OpenDir: serving manager budget %d, want %d", got, n)
		}
	},
	// storage.ReadSegments(dir) after Close: the named directory outlives
	// the engine. (Without the option Open's own directory does not:
	// TestOpenWithoutDirIsAnOrdinaryEngine.)
	"WithStorageDir": func(t *testing.T, f *optionFixture) {
		dir := filepath.Join(t.TempDir(), "ix")
		eng := f.open(t, WithStorageDir(dir))
		if _, ok := eng.Index().Store.(*storage.FileStore); !ok || eng.SegmentStats().Generation != 1 {
			t.Errorf("engine: store %T at generation %d, want a FileStore at generation 1",
				eng.Index().Store, eng.SegmentStats().Generation)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.ReadSegments(dir); err != nil {
			t.Errorf("the storage directory did not outlive Close: %v", err)
		}
	},
	// No effect, by design: bench/workloads.go still passes it, and bench/
	// is frozen by BENCHMARK.json. A `benchmark` issue that drops that call
	// may delete the option (ROADMAP 4(c)).
	"WithSegments": func(t *testing.T, f *optionFixture) {
		dir := f.dir(t)
		with, without := f.openDir(t, dir, WithSegments()), f.openDir(t, dir)
		if with.SegmentStats() != without.SegmentStats() {
			t.Errorf("WithSegments changed SegmentStats: %+v vs %+v", with.SegmentStats(), without.SegmentStats())
		}
		if a, b := f.search(t, with, SearchRequest{}), f.search(t, without, SearchRequest{}); !reflect.DeepEqual(a.Hits, b.Hits) {
			t.Error("WithSegments changed a ranking")
		}
	},
	// SegmentStats.Merges / .Segments: an oversized directory merges at open.
	"WithAutoMerge": func(t *testing.T, f *optionFixture) {
		if st := f.openDir(t, f.threeSegments(t)).SegmentStats(); st.Segments != 3 || st.Merges != 0 {
			t.Fatalf("without a merger: %+v, want 3 segments and no merges", st)
		}
		eng := f.openDir(t, f.threeSegments(t), WithAutoMerge(1))
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if st := eng.SegmentStats(); st.Merges > 0 && st.Segments == 1 {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("merger never bounded the directory: %+v", st)
			}
		}
	},
	// SearchResponse.Cached and MetricsSnapshot().ResultCache.
	"WithResultCache": func(t *testing.T, f *optionFixture) {
		eng := f.open(t, WithResultCache(8))
		f.search(t, eng, SearchRequest{})
		if !f.search(t, eng, SearchRequest{}).Cached || eng.MetricsSnapshot().ResultCache.Hits != 1 {
			t.Errorf("repeat query missed the result cache: %+v", eng.MetricsSnapshot().ResultCache)
		}
		eng = f.open(t)
		f.search(t, eng, SearchRequest{})
		if f.search(t, eng, SearchRequest{}).Cached || eng.MetricsSnapshot().ResultCache.Cap != 0 {
			t.Error("default engine served from a result cache")
		}
	},
	// MetricsSnapshot().ServiceEstimate: the admission controller's EWMA,
	// zero unless admission is on. (Shedding: qos_test.go.)
	"WithAdmissionControl": func(t *testing.T, f *optionFixture) {
		eng := f.open(t, WithAdmissionControl(4))
		f.search(t, eng, SearchRequest{})
		if eng.MetricsSnapshot().ServiceEstimate <= 0 {
			t.Error("admission on, but no service-time estimate after a query")
		}
		eng = f.open(t)
		f.search(t, eng, SearchRequest{})
		if got := eng.MetricsSnapshot().ServiceEstimate; got != 0 {
			t.Errorf("admission off, but service estimate %v", got)
		}
	},
	// The next_calls attribute of a traced query's operator spans: smaller
	// vectors, more Next calls for the same tuples.
	"WithVectorSize": func(t *testing.T, f *optionFixture) {
		nextCalls := func(eng *Engine) (n int64) {
			f.search(t, eng, SearchRequest{Trace: true}).Trace.Walk(func(s *TraceSpan) {
				if a, ok := s.Attr("next_calls"); ok {
					n += a.Val
				}
			})
			return n
		}
		small, def := nextCalls(f.open(t, WithVectorSize(16))), nextCalls(f.open(t))
		if small <= def {
			t.Errorf("16-tuple vectors took %d Next calls, 1024-tuple vectors %d", small, def)
		}
	},
	// Engine.Searchers().
	"WithSearchers": func(t *testing.T, f *optionFixture) {
		if got := f.open(t, WithSearchers(3)).Searchers(); got != 3 {
			t.Errorf("searcher pool size %d, want 3", got)
		}
	},
	// Engine.SlowQueries(): empty by default, every query at a 1ns threshold.
	"WithSlowQueryThreshold": func(t *testing.T, f *optionFixture) {
		eng := f.open(t, WithSlowQueryThreshold(time.Nanosecond))
		f.search(t, eng, SearchRequest{})
		if len(eng.SlowQueries()) == 0 {
			t.Error("1ns threshold kept no trace")
		}
		eng = f.open(t)
		f.search(t, eng, SearchRequest{})
		if n := len(eng.SlowQueries()); n != 0 {
			t.Errorf("default engine kept %d traces", n)
		}
	},
	// Engine.SlowQueries(): at rate 1 every query is kept, however fast.
	"WithTraceSampling": func(t *testing.T, f *optionFixture) {
		eng := f.open(t, WithTraceSampling(1))
		f.search(t, eng, SearchRequest{})
		if len(eng.SlowQueries()) == 0 {
			t.Error("sampling rate 1 kept no trace")
		}
	},
	// Engine.OpsAddr(). (What it serves: TestEngineOpsServer.)
	"WithOpsServer": func(t *testing.T, f *optionFixture) {
		if f.open(t, WithOpsServer("127.0.0.1:0")).OpsAddr() == "" {
			t.Error("ops server has no address")
		}
		if got := f.open(t).OpsAddr(); got != "" {
			t.Errorf("default engine serves ops on %q", got)
		}
	},
}

// TestEveryOptionHasAnObservable enumerates the exported With* functions of
// options.go and runs each one's row of optionRows: an option nobody can
// see the effect of fails here, and so does a row for an option that no
// longer exists.
func TestEveryOptionHasAnObservable(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	coll := smallCollection()
	ix, err := BuildIndex(coll, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &optionFixture{coll: coll, ix: ix, terms: coll.PrecisionQueries(1, 41)[0].Terms}

	declared := map[string]bool{}
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !fn.Name.IsExported() || !strings.HasPrefix(fn.Name.Name, "With") {
			continue
		}
		name := fn.Name.Name
		declared[name] = true
		row, ok := optionRows[name]
		if !ok {
			t.Errorf("%s has no row in optionRows: name the test-visible effect of setting it", name)
			continue
		}
		t.Run(name, func(t *testing.T) { row(t, f) })
	}
	for name := range optionRows {
		if !declared[name] {
			t.Errorf("optionRows has a row for %s, which options.go no longer declares", name)
		}
	}
}
