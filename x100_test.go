package repro

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/colbm"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/ir"
)

// Integration tests against the public facade: everything an application
// would do, end to end, through one import.

func TestFacadeEndToEndSearch(t *testing.T) {
	coll, eng := engineFixture(t)
	ctx := context.Background()
	q := coll.PrecisionQueries(1, 5)[0]

	for _, strat := range []Strategy{BoolAND, BoolOR, BM25, BM25T, BM25TC, BM25TCM, BM25TCMQ8} {
		resp, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 10, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if resp.Stats.Wall <= 0 {
			t.Errorf("%v: no wall time recorded", strat)
		}
		for _, r := range resp.Hits {
			if r.Name == "" {
				t.Errorf("%v: unresolved document name", strat)
			}
		}
	}
	// Ranked retrieval on topic queries scores well.
	resp, err := eng.Search(ctx, SearchRequest{Terms: q.Terms, K: 20, Strategy: BM25})
	if err != nil {
		t.Fatal(err)
	}
	if p := PrecisionAtK(resp.Hits, coll.Qrels(q), 20); p < 0.2 {
		t.Errorf("facade BM25 p@20 = %v", p)
	}
}

func TestFacadeBooleanLanguage(t *testing.T) {
	_, eng := engineFixture(t)
	var terms []string
	for term := range eng.Index().Terms {
		terms = append(terms, term)
		if len(terms) == 2 {
			break
		}
	}
	expr, err := ParseBoolQuery(terms[0] + " OR " + terms[1])
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := eng.SearchBool(context.Background(), expr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("boolean OR over known terms returned nothing")
	}
}

func TestFacadeRelationalPlan(t *testing.T) {
	// Build a small table and run a Figure-1-shaped plan through the
	// facade's engine surface.
	disk := NewSimDisk(DefaultDiskParams())
	pool := NewBufferManager(0)
	b := NewTableBuilder("t", disk, pool, []ColumnSpec{
		{Name: "k", Type: TypeInt64, Enc: EncPFOR},
		{Name: "flag", Type: TypeStr},
	})
	for i := 0; i < 10000; i++ {
		b.AppendInt64("k", int64(i%97))
		if i%2 == 0 {
			b.AppendStr("flag", "A")
		} else {
			b.AppendStr("flag", "B")
		}
	}
	tab, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := From(tab, "k", "flag").
		Where(&CmpIntColVal{Col: "k", Op: CmpLT, Val: 50}).
		Aggregate([]string{"flag"},
			AggSpec{Op: AggCount, Name: "n"}, AggSpec{Op: AggSum, Col: "k", Name: "sum"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := engine.Collect(plan, engine.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d groups", len(rows))
	}
	// Explain works through the facade too.
	if out := Explain(plan); !strings.Contains(out, "Aggregate") || !strings.Contains(out, "Scan") {
		t.Errorf("explain output: %s", out)
	}
}

func TestFacadeCompression(t *testing.T) {
	vals := []int64{100, 105, 111, 120, 1 << 40, 121, 130}
	bl, err := EncodePFORDelta(vals, 8, 0, Patched)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(vals))
	if err := DecodeBlock(bl, out); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("facade compression round trip failed at %d", i)
		}
	}
	if _, err := EncodePFOR(vals, 8, 0, Naive); err != nil {
		t.Fatal(err)
	}
	if _, err := EncodePDictAuto(vals, Patched); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCluster(t *testing.T) {
	coll := fixtureCollection()
	cluster, err := StartCluster(coll, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	broker, err := cluster.NewBroker()
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	q := coll.PrecisionQueries(1, 6)[0]
	res, timing, err := broker.Search(q.Terms, 10, BM25TCMQ8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Error("distributed search returned nothing")
	}
	if len(timing.PerServer) != 2 {
		t.Errorf("per-server timings: %d", len(timing.PerServer))
	}
	var stats dist.RunStats
	stats, err = cluster.RunStreams(coll.EfficiencyQueries(20, 7), 2, 10, BM25TCMQ8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Queries != 20 {
		t.Errorf("ran %d queries", stats.Queries)
	}
}

func TestFacadeJoinsAndTopN(t *testing.T) {
	disk := NewSimDisk(DefaultDiskParams())
	pool := NewBufferManager(1 << 20)
	b := NewTableBuilder("s", disk, pool, []ColumnSpec{
		{Name: "k", Type: TypeInt64, Enc: colbm.EncPFORDelta},
		{Name: "v", Type: TypeFloat64},
	})
	for i := 0; i < 1000; i++ {
		b.AppendInt64("k", int64(i*2))
		b.AppendFloat64("v", float64(i%37))
	}
	left, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewTableBuilder("r", disk, pool, []ColumnSpec{
		{Name: "k", Type: TypeInt64, Enc: colbm.EncPFORDelta},
	})
	for i := 0; i < 1000; i++ {
		b2.AppendInt64("k", int64(i*3))
	}
	right, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Inner join on multiples of 6, then top-3 by value.
	rows, err := From(left, "k", "v").
		Join(From(right, "k"), JoinSpec{LeftKey: "k", RightKey: "k", LeftPrefix: "l.", RightPrefix: "r."}).
		TopN(3, OrderSpec{Col: "l.v", Desc: true}).
		Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("topn over join: %d rows", len(rows))
	}
	prev := rows[0][1].(float64)
	for _, r := range rows[1:] {
		if v := r[1].(float64); v > prev {
			t.Fatal("topn not descending")
		} else {
			prev = v
		}
	}

	// Outer join through the facade.
	n := 0
	err = From(left, "k").
		Join(From(right, "k"), JoinSpec{LeftKey: "k", RightKey: "k", LeftPrefix: "l.", RightPrefix: "r.", Outer: true}).
		Run(context.Background(), func(batch *Batch) error { n += batch.N; return nil })
	if err != nil {
		t.Fatal(err)
	}
	// |union of multiples of 2 and 3 under their ranges|
	if n < 1000 {
		t.Errorf("outer join rows: %d", n)
	}
}

func TestFacadeSearcherExplain(t *testing.T) {
	coll, eng := engineFixture(t, WithVectorSize(512))
	q := coll.PrecisionQueries(1, 9)[0]
	plan, err := eng.ExplainPlan(context.Background(), q.Terms, 10, BM25TCMQ8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, ".TD[") {
		t.Errorf("facade explain: %s", plan)
	}
}

// TestInMemoryAndPersistedCachesAgree: an ir.Build index over SimDisk and
// its SaveIndex/LoadIndex copy cache chunks through the same buffer manager, so
// the same queries under the same budget must hit, miss and evict exactly
// alike — the chunk sizes are the same bytes and the eviction policy is one.
// The budgets are fractions of the index's store, so each one evicts
// whatever the chunk length.
// TestZeroIndexConfigChargesFiniteIO: an in-memory build always simulates
// the default disk, so a zero IndexConfig builds the index the default one
// does, and one read through either store charges the same positive time.
func TestZeroIndexConfigChargesFiniteIO(t *testing.T) {
	coll := smallCollection()
	var charged []time.Duration
	for _, cfg := range []IndexConfig{{}, DefaultIndexConfig()} {
		ix, err := BuildIndex(coll, cfg)
		if err != nil {
			t.Fatal(err)
		}
		col, err := ix.TD.Column(ir.ColDocIDC)
		if err != nil {
			t.Fatal(err)
		}
		ix.Store.ResetStats()
		if _, err := ix.Store.Read(col.BlobName(), 0, 16); err != nil {
			t.Fatal(err)
		}
		charged = append(charged, ix.Store.Stats().IOTime)
	}
	if charged[0] <= 0 || charged[0] != charged[1] {
		t.Errorf("a 16-byte read charged %v under IndexConfig{} and %v under DefaultIndexConfig(); want the same positive time",
			charged[0], charged[1])
	}
}

func TestInMemoryAndPersistedCachesAgree(t *testing.T) {
	cfg := DefaultCollectionConfig()
	cfg.NumDocs, cfg.Vocab, cfg.AvgDocLen, cfg.NumTopics = 3000, 4000, 90, 25
	coll := GenerateCollection(cfg)
	queries := coll.EfficiencyQueries(40, 32)
	run := func(ix *Index) colbm.CacheStats {
		ix.Cache.Drop()
		ix.Cache.ResetStats()
		s := ir.NewSearcher(ix, 0)
		for _, strat := range []Strategy{BM25TC, BM25TCMQ8} {
			for _, q := range queries {
				if _, _, err := s.Search(q.Terms, 20, strat); err != nil {
					t.Fatalf("%v %v: %v", strat, q.Terms, err)
				}
			}
		}
		return ix.Cache.Stats()
	}
	probe, err := BuildIndex(coll, DefaultIndexConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := probe.Store.TotalSize()
	for _, budget := range []int64{store / 64, store / 16, store / 8} {
		ic := DefaultIndexConfig()
		ic.PoolBytes = budget
		mem, err := BuildIndex(coll, ic)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := SaveIndex(dir, mem); err != nil {
			t.Fatal(err)
		}
		disk, err := LoadIndex(dir, budget)
		if err != nil {
			t.Fatal(err)
		}
		m, d := run(mem), run(disk)
		disk.Close()
		if m.Evictions == 0 {
			t.Errorf("budget %d KiB evicted nothing; the comparison is vacuous", budget>>10)
		}
		if m.Hits != d.Hits || m.Misses != d.Misses || m.Evictions != d.Evictions {
			t.Errorf("budget %d KiB: in memory %+v, persisted %+v", budget>>10, m, d)
		}
	}
}
