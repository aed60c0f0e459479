package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/storage"
)

// scanExperiment measures the hardware-speed scan path, one lever at a
// time:
//
//  1. Cold scan throughput: the same cold query batch over positioned
//     file reads (ReadAt) and over WithMmapReads — single-copy reads out
//     of a shared mapping with MADV_SEQUENTIAL on prefetch runs.
//  2. Scan resistance: a warmed hot query set, a cold scan several times
//     the buffer budget (each scan query re-referenced, the pattern that
//     defeats CLOCK), then the hot set again — hit rate under the CLOCK
//     policy vs scan-resistant 2Q admission.
//  3. Append cost: quantized segmented appends under exact bounds (every
//     append re-scans existing postings) vs the approximate-bounds
//     envelope (appends skip the scan while observed scores stay inside
//     it).
//
// Machine-readable "scan-cold ..." / "scan-hotset ..." / "scan-append ..."
// lines carry the before/after numbers for CI.
func scanExperiment(docs, nq int, seed int64) error {
	header("Hardware-speed scan path: mmap reads, 2Q admission, approx bounds")
	c, _, err := buildTestbed(docs, seed)
	if err != nil {
		return err
	}
	// Fine chunks (1Ki values instead of 128Ki) make the per-chunk read
	// cost visible: a query batch becomes thousands of chunk reads, the
	// regime where the mmap path's syscall-and-copy savings and the
	// admission policy's eviction decisions actually matter.
	bc := ir.DefaultBuildConfig()
	bc.ChunkLen = 1024
	ix, err := ir.Build(c, bc)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "trecbench-scan-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := repro.SaveIndex(dir, ix); err != nil {
		return err
	}
	onDisk := ix.Store.TotalSize() // column blobs persist byte for byte
	fmt.Printf("persisted: %.1f MB (1Ki-value chunks) in %s\n\n", float64(onDisk)/1e6, dir)

	// --- 1. Sequential store scan: positioned reads vs mmap -------------
	// Every blob read front to back in 64KB requests — the access pattern
	// of a cold column scan — once cold (page cache and mappings empty for
	// mmap; the first pass pays the faults) and twice steady-state.
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		return err
	}
	blobDir := filepath.Join(dir, sm.Segments[0].Name) // the raw scans read the one segment's files
	entries, err := os.ReadDir(blobDir)
	if err != nil {
		return err
	}
	var blobs []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".col") {
			blobs = append(blobs, strings.TrimSuffix(n, ".col"))
		}
	}
	sort.Strings(blobs)
	const reqSize = 64 << 10
	fmt.Printf("%-12s %12s %12s %12s %12s\n", "read path", "scan MB", "reads", "first MB/s", "steady MB/s")
	for _, mm := range []bool{false, true} {
		var fsOpts []storage.FileStoreOption
		name := "readat"
		if mm {
			fsOpts = append(fsOpts, storage.WithMmap())
			name = "mmap"
		}
		st, err := storage.NewFileStore(blobDir, fsOpts...)
		if err != nil {
			return err
		}
		scanOnce := func() (int64, time.Duration, error) {
			start := time.Now()
			var n int64
			for _, b := range blobs {
				sz := st.Size(b)
				st.AdviseSequential(b, 0, sz)
				for off := 0; off < sz; off += reqSize {
					r := min(reqSize, sz-off)
					if _, err := st.Read(b, off, r); err != nil {
						return 0, 0, err
					}
					n += int64(r)
				}
			}
			return n, time.Since(start), nil
		}
		total, first, err := scanOnce()
		if err != nil {
			st.Close()
			return err
		}
		var steady time.Duration
		const steadyReps = 2
		for i := 0; i < steadyReps; i++ {
			_, d, err := scanOnce()
			if err != nil {
				st.Close()
				return err
			}
			steady += d
		}
		ds := st.Stats()
		st.Close()
		firstMBs := float64(total) / 1e6 / first.Seconds()
		steadyMBs := float64(total) * steadyReps / 1e6 / steady.Seconds()
		fmt.Printf("%-12s %12.1f %12d %12.0f %12.0f\n",
			name, float64(total)/1e6, ds.Reads/(steadyReps+1), firstMBs, steadyMBs)
		fmt.Printf("scan-cold {\"mode\":%q,\"mmap_active\":%t,\"scan_mb\":%.1f,\"first_pass_mb_per_s\":%.0f,\"steady_mb_per_s\":%.0f}\n",
			name, st.MmapEnabled(), float64(total)/1e6, firstMBs, steadyMBs)
	}

	// --- 2. Hot set vs cold scan: CLOCK vs 2Q ---------------------------
	// The sweep queries every term in dictionary order — a sequential
	// posting scan an order of magnitude over the budget, each query
	// issued twice back to back so its chunks are re-referenced the way a
	// scanning cursor revisits a chunk across vectors. That pattern loads
	// CLOCK's reference bits: the hand laps the ring and flushes the
	// warmed hot set. Under 2Q the scan's references are correlated
	// (contiguous in time, then never again): they live and die in the
	// probation FIFO and the promoted hot set is never threatened.
	budget := onDisk / 10
	// The interlude pool walks the dictionary from the top downward:
	// one-term queries over rare terms reach fresh chunks at every step
	// (popular-term pools saturate on the same shared chunks and never
	// overflow the budget), and because the sweep visits these terms LAST,
	// their ghosts are long gone by then — the interlude leaves no
	// promotion echo in the sweep.
	var sweep, ipool []corpus.Query
	for i := range c.Postings {
		if len(c.Postings[i]) > 0 {
			sweep = append(sweep, corpus.Query{Terms: []string{c.TermStrings[i]}})
		}
	}
	for i := len(c.Postings) - 1; i >= 0; i-- {
		if len(c.Postings[i]) > 0 {
			ipool = append(ipool, corpus.Query{Terms: []string{c.TermStrings[i]}})
		}
	}
	// Warmup sizing is in BYTES, measured against a throwaway unbounded
	// open (Used = the query set's distinct chunk footprint): the hot set
	// must fit the 2Q main area alongside its ghosts (~quarter budget),
	// and the interlude — the one-shot traffic that ages the hot set out
	// of probation so its return references are ghost hits, the
	// recurrence-across-lifetimes signal 2Q promotes on — must slightly
	// exceed the budget: smaller and nothing is evicted into a ghost,
	// much larger and the hot ghosts fall off the (budget/2) ghost list
	// before the hot set returns.
	sizeByBytes := func(pool []corpus.Query, target int64) ([]corpus.Query, error) {
		tix, err := repro.LoadIndex(dir, 0)
		if err != nil {
			return nil, err
		}
		defer tix.Close()
		ts := ir.NewSearcher(tix, 0)
		var out []corpus.Query
		for _, q := range pool {
			if _, _, err := ts.Search(q.Terms, 20, ir.BM25TCMQ8); err != nil {
				return nil, err
			}
			out = append(out, q)
			if tix.Cache.Stats().Used >= target {
				break
			}
		}
		return out, nil
	}
	hot, err := sizeByBytes(c.EfficiencyQueries(64, seed+32), budget/4)
	if err != nil {
		return err
	}
	interlude, err := sizeByBytes(ipool, budget*115/100)
	if err != nil {
		return err
	}
	// Baseline: the number of chunk loads the hot batch costs against an
	// empty cache — the denominator for "how much of the hot set did the
	// scan flush".
	base, err := repro.LoadIndex(dir, budget)
	if err != nil {
		return err
	}
	bs := ir.NewSearcher(base, 0)
	for _, q := range hot {
		if _, _, err := bs.Search(q.Terms, 20, ir.BM25TCMQ8); err != nil {
			base.Close()
			return err
		}
	}
	coldMisses := base.Cache.Stats().Misses
	base.Close()

	fmt.Printf("\nbudget %d KB; %d hot queries (%d chunks) warmed, %d-term re-referencing sweep, hot set again\n\n",
		budget>>10, len(hot), coldMisses, len(sweep))
	fmt.Printf("%-12s %14s %14s\n", "admission", "hot preserved", "sweep evicts")
	for _, policy := range []storage.AdmissionPolicy{storage.AdmissionClock, storage.Admission2Q} {
		name := "clock"
		if policy == storage.Admission2Q {
			name = "2q"
		}
		pix, err := repro.LoadIndex(dir, budget, storage.WithCacheAdmission(policy))
		if err != nil {
			return err
		}
		s := ir.NewSearcher(pix, 0)
		run := func(qs []corpus.Query, reps int) error {
			for r := 0; r < reps; r++ {
				for _, q := range qs {
					if _, _, err := s.Search(q.Terms, 20, ir.BM25TCMQ8); err != nil {
						return err
					}
				}
			}
			return nil
		}
		// Warm the hot set the way reuse looks to the cache: a first
		// touch, intervening traffic that ages it out of probation, then
		// the return references that promote it (ghost hits under 2Q).
		if err := run(hot, 1); err != nil {
			return err
		}
		if err := run(interlude, 1); err != nil {
			return err
		}
		if err := run(hot, 1); err != nil {
			return err
		}
		for _, q := range sweep {
			if err := run([]corpus.Query{q}, 2); err != nil {
				return err
			}
		}
		evicts := pix.Cache.Stats().Evictions
		pix.Cache.ResetStats()
		if err := run(hot, 1); err != nil {
			return err
		}
		st := pix.Cache.Stats()
		pix.Close()
		// Misses on the returning hot batch are exactly the hot chunks the
		// sweep flushed; preserved = the fraction still resident.
		preserved := 100 * (1 - float64(st.Misses)/float64(coldMisses))
		fmt.Printf("%-12s %13.1f%% %14d\n", name, preserved, evicts)
		fmt.Printf("scan-hotset {\"policy\":%q,\"hot_preserved_pct\":%.1f,\"hot_chunks\":%d,\"reloaded\":%d,\"sweep_evictions\":%d}\n",
			name, preserved, coldMisses, st.Misses, evicts)
	}

	// --- 3. Quantized append cost: exact bounds vs approx envelope ------
	const appends = 8
	batchDocs := docs / 10 / appends
	if batchDocs < 10 {
		batchDocs = 10
	}
	seedDocs := docs - appends*batchDocs
	fmt.Printf("\nappend cost: %d-doc seed, then %d appends of %d docs each\n\n", seedDocs, appends, batchDocs)
	fmt.Printf("%-12s %14s\n", "bounds", "ms/append")
	for _, drift := range []float64{0, 0.1} {
		name := "exact"
		if drift > 0 {
			name = "approx"
		}
		sdir, err := os.MkdirTemp("", "trecbench-scanappend-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(sdir)
		seedColl, err := c.Slice(0, seedDocs)
		if err != nil {
			return err
		}
		if _, err := storage.AppendSegment(sdir, seedColl, ir.DefaultBuildConfig()); err != nil {
			return err
		}
		if drift > 0 {
			if err := storage.SetBoundsPolicy(sdir, drift); err != nil {
				return err
			}
			// The first append under the policy pays one exact scan to
			// bake the envelope; it is setup, not the steady state.
			warm, err := c.Slice(seedDocs, seedDocs+batchDocs)
			if err != nil {
				return err
			}
			if _, err := storage.AppendSegment(sdir, warm, ir.DefaultBuildConfig()); err != nil {
				return err
			}
		}
		timed := appends
		if drift > 0 {
			timed--
		}
		start := time.Now()
		for a := appends - timed; a < appends; a++ {
			lo := seedDocs + a*batchDocs
			batch, err := c.Slice(lo, lo+batchDocs)
			if err != nil {
				return err
			}
			if _, err := storage.AppendSegment(sdir, batch, ir.DefaultBuildConfig()); err != nil {
				return err
			}
		}
		per := float64(time.Since(start).Microseconds()) / float64(timed) / 1000
		fmt.Printf("%-12s %14.2f\n", name, per)
		fmt.Printf("scan-append {\"mode\":%q,\"appends\":%d,\"batch_docs\":%d,\"ms_per_append\":%.2f}\n",
			name, timed, batchDocs, per)
	}
	fmt.Println("\n(shape: mmap reads drop the per-read syscall + copy, so the cold batch's")
	fmt.Println(" IO throughput rises; 2Q keeps the warmed hot set resident through a scan")
	fmt.Println(" several times the budget that flushes CLOCK; approximate bounds make the")
	fmt.Println(" quantized append cost O(batch) instead of O(existing postings))")
	return nil
}
