// Analytics: the Figure-1 query of the paper — a Scan -> Select ->
// Project -> Aggregate pipeline over a TPC-H-lineitem-like table — built
// with the fluent plan builder, which validates every column and
// expression reference at Build time. This demonstrates that the
// substrate under the IR workload is a general relational engine, which is
// the paper's thesis: IR is just another query workload once the kernel is
// hardware-conscious.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	disk := repro.NewSimDisk(repro.DefaultDiskParams())
	pool := repro.NewBufferManager(0)

	// lineitem(shipdate, returnflag, extprice): shipdate as days since
	// epoch, returnflag one of A/N/R, extended price in cents.
	b := repro.NewTableBuilder("lineitem", disk, pool, []repro.ColumnSpec{
		{Name: "shipdate", Type: repro.TypeInt64, Enc: repro.EncPFOR},
		{Name: "returnflag", Type: repro.TypeStr},
		{Name: "extprice", Type: repro.TypeInt64, Enc: repro.EncPFOR},
	})
	rng := rand.New(rand.NewSource(1))
	const rows = 1_000_000
	flags := []string{"A", "N", "R"}
	for i := 0; i < rows; i++ {
		b.AppendInt64("shipdate", 10000+int64(rng.Intn(2500)))
		b.AppendStr("returnflag", flags[rng.Intn(3)])
		b.AppendInt64("extprice", 100+int64(rng.Intn(100000)))
	}
	tab, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lineitem: %d rows, %.1f MB on simulated disk\n\n", tab.N, float64(tab.DiskSize())/1e6)

	// SELECT returnflag, SUM(extprice * 1.19) AS sum_vat_price, COUNT(*)
	// FROM lineitem WHERE shipdate < 11500 GROUP BY returnflag
	// — the vat-price aggregation of Figure 1, assembled fluently. Every
	// column and expression reference is checked when Build runs; a typo'd
	// name fails here with a named error, not deep inside Open.
	plan, err := repro.From(tab, "shipdate", "returnflag", "extprice").
		Where(&repro.CmpIntColVal{Col: "shipdate", Op: repro.CmpLT, Val: 11500}).
		Project(
			repro.Projection{Name: "returnflag", Expr: repro.NewColRef("returnflag")},
			repro.Projection{Name: "vat_price", Expr: repro.NewArith(repro.OpMul,
				repro.NewToFloat(repro.NewColRef("extprice")),
				&repro.ConstFloat{Val: 1.19})}).
		Aggregate([]string{"returnflag"},
			repro.AggSpec{Op: repro.AggSum, Col: "vat_price", Name: "sum_vat_price"},
			repro.AggSpec{Op: repro.AggCount, Name: "cnt"}).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// Execution honors context cancellation between vectors.
	rowsOut, err := repro.CollectContext(context.Background(), plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %18s %10s\n", "returnflag", "sum_vat_price", "count")
	for _, r := range rowsOut {
		fmt.Printf("%-12s %18.2f %10d\n", r[0], r[1], r[2])
	}

	// The annotated plan: vectorized operators with per-node tuple counts
	// and self time (the demo display of the paper's §4).
	fmt.Printf("\nannotated plan:\n%s", repro.Explain(plan))
}
