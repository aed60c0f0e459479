package dist

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/qos"
)

// brokerFixture is what every row of TestEveryBrokerOptionHasAnObservable
// works from: one small collection and a query with hits.
type brokerFixture struct {
	coll  *corpus.Collection
	terms []string
}

// cluster starts a fresh cluster over the fixture's collection, closed
// when the test ends.
func (f *brokerFixture) cluster(t *testing.T, partitions int, opts ...ClusterOption) *Cluster {
	t.Helper()
	cl, err := StartCluster(f.coll, partitions, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// broker dials a broker over cl, closed when the test ends.
func (f *brokerFixture) broker(t *testing.T, cl *Cluster, opts ...BrokerOption) *Broker {
	t.Helper()
	brk, err := cl.NewBroker(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { brk.Close() })
	return brk
}

func (f *brokerFixture) search(t *testing.T, brk *Broker) {
	t.Helper()
	if _, _, err := brk.SearchContext(context.Background(), f.terms, 10, ir.BM25TCMQ8); err != nil {
		t.Fatal(err)
	}
}

// brokerOptionRows maps every exported With* of broker.go and cluster.go
// to a check of its test-visible effect.
var brokerOptionRows = map[string]func(t *testing.T, f *brokerFixture){
	// GroupMetrics.HedgeBudget: armed after the warm-up, 0 without it.
	"WithHedging": func(t *testing.T, f *brokerFixture) {
		cl := f.cluster(t, 2, WithReplicas(2))
		warmHedging(t, f.broker(t, cl, WithHedging()), f.terms)
		plain := f.broker(t, cl)
		for i := 0; i < hedgeWarmup; i++ {
			f.search(t, plain)
		}
		for gi, g := range plain.MetricsSnapshot().Groups {
			if g.HedgeBudget != 0 {
				t.Errorf("unhedged broker: group %d armed %v", gi, g.HedgeBudget)
			}
		}
	},
	// Result.Degraded: a whole dead group degrades the answer instead of
	// failing the call.
	"WithPartialResults": func(t *testing.T, f *brokerFixture) {
		cl := f.cluster(t, 2)
		partial := f.broker(t, cl, WithPartialResults())
		strict := f.broker(t, cl)
		cl.Replica(1, 0).Close()
		reqs := []Request{{Terms: f.terms, K: 10, Strategy: ir.BM25TCMQ8}}
		out, _, err := partial.SearchMany(context.Background(), reqs)
		if err != nil || !out[0].Degraded {
			t.Errorf("partial-results broker with a group down: err %v, results %+v, want Degraded", err, out)
		}
		if _, _, err := strict.SearchMany(context.Background(), reqs); err == nil {
			t.Error("default broker answered with a whole group down")
		}
	},
	// BrokerMetrics.Shed: with one slot and one waiter taken, a third call
	// is rejected as overloaded.
	"WithAdmission": func(t *testing.T, f *brokerFixture) {
		cl := f.cluster(t, 1)
		brk := f.broker(t, cl, WithAdmission(1, 1))
		cl.Replica(0, 0).SetFault(1, FaultStall, 500*time.Millisecond)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := brk.SearchContext(context.Background(), f.terms, 10, ir.BM25TCMQ8); err != nil {
					t.Errorf("admitted call: %v", err)
				}
			}()
		}
		defer wg.Wait()
		for deadline := time.Now().Add(10 * time.Second); brk.MetricsSnapshot().Inflight < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("two stalled calls never both held admission")
			}
		}
		_, _, err := brk.SearchContext(context.Background(), f.terms, 10, ir.BM25TCMQ8)
		if !errors.Is(err, qos.ErrOverloaded) {
			t.Errorf("third call past a full queue: %v, want qos.ErrOverloaded", err)
		}
		if got := brk.MetricsSnapshot().Shed; got != 1 {
			t.Errorf("BrokerMetrics.Shed = %d, want 1", got)
		}
	},
	// SlowQueries: a call at or over the threshold is logged.
	"WithSlowQueryThreshold": func(t *testing.T, f *brokerFixture) {
		slowLogged(t, f, WithSlowQueryThreshold(time.Nanosecond))
	},
	// SlowQueries: a sampled call is logged whatever its duration.
	"WithTraceSampling": func(t *testing.T, f *brokerFixture) {
		slowLogged(t, f, WithTraceSampling(1))
	},
	// Broker.OpsAddr: bound with the option, "" without.
	"WithOpsServer": func(t *testing.T, f *brokerFixture) {
		cl := f.cluster(t, 1)
		if f.broker(t, cl, WithOpsServer("127.0.0.1:0")).OpsAddr() == "" {
			t.Error("ops server has no address")
		}
		if got := f.broker(t, cl).OpsAddr(); got != "" {
			t.Errorf("default broker serves ops on %q", got)
		}
	},
	// Broker.Replicas: one status per replica of every group.
	"WithReplicas": func(t *testing.T, f *brokerFixture) {
		for _, r := range []int{1, 2} {
			groups := f.broker(t, f.cluster(t, 2, WithReplicas(r))).Replicas()
			for gi, g := range groups {
				if len(g) != r {
					t.Errorf("WithReplicas(%d): group %d has %d replicas", r, gi, len(g))
				}
			}
		}
	},
}

// slowLogged checks that a broker dialed with opt logs a call in
// SlowQueries and a default broker logs none.
func slowLogged(t *testing.T, f *brokerFixture, opt BrokerOption) {
	t.Helper()
	cl := f.cluster(t, 1)
	brk, plain := f.broker(t, cl, opt), f.broker(t, cl)
	f.search(t, brk)
	f.search(t, plain)
	if len(brk.SlowQueries()) == 0 {
		t.Error("call missing from SlowQueries")
	}
	if got := len(plain.SlowQueries()); got != 0 {
		t.Errorf("default broker logged %d calls", got)
	}
}

// TestEveryBrokerOptionHasAnObservable enumerates the exported With*
// functions of broker.go and cluster.go and runs each one's row of
// brokerOptionRows: an option nobody can see the effect of fails here,
// and so does a row for an option that no longer exists.
func TestEveryBrokerOptionHasAnObservable(t *testing.T) {
	c := testCollection(t)
	f := &brokerFixture{coll: c, terms: c.PrecisionQueries(1, 41)[0].Terms}

	declared := map[string]bool{}
	for _, src := range []string{"broker.go", "cluster.go"} {
		file, err := parser.ParseFile(token.NewFileSet(), src, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || !strings.HasPrefix(fn.Name.Name, "With") {
				continue
			}
			name := fn.Name.Name
			declared[name] = true
			row, ok := brokerOptionRows[name]
			if !ok {
				t.Errorf("%s (%s) has no row in brokerOptionRows: name the test-visible effect of setting it", name, src)
				continue
			}
			t.Run(name, func(t *testing.T) { row(t, f) })
		}
	}
	for name := range brokerOptionRows {
		if !declared[name] {
			t.Errorf("brokerOptionRows has a row for %s, which broker.go and cluster.go no longer declare", name)
		}
	}
}
