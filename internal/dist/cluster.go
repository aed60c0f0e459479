package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/colbm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/storage"
)

// ClusterOption tunes cluster startup (StartCluster,
// StartClusterFromDirs).
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	replicas int
}

// WithReplicas serves every partition range with r servers instead of
// one. Each replica past the first serves its own copy of the partition
// directory (see StartClusterFromDirs), with its own file handles and
// buffer manager. Replication changes no ranking (replicas are
// identical), it buys the broker hedge targets and failover capacity.
// r < 1 is treated as 1.
func WithReplicas(r int) ClusterOption {
	return func(c *clusterConfig) { c.replicas = r }
}

func applyClusterOptions(opts []ClusterOption) clusterConfig {
	cfg := clusterConfig{replicas: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.replicas < 1 {
		cfg.replicas = 1
	}
	return cfg
}

// slotMeta is the cluster-side record of one serving slot: the server,
// its last known address (revival reuses it), the directory it serves,
// the logical host label placement decisions are made against, and
// whether the directory is cluster-owned — created by an elastic
// operation and deleted when the slot retires.
type slotMeta struct {
	srv   *Server
	addr  string
	dir   string
	host  string
	owned bool
}

// Cluster is a set of partition servers on loopback TCP — every partition
// range served by a replica group — plus the batch-run harness the
// Table 3 experiments drive. The slot table is the cluster's only view of
// its shape: topology changes (replica add/retire/move, partition
// split/merge — see elastic.go) rewrite it, so a Cluster that started
// uniform need not stay so. Read it through the accessors (Partitions,
// GroupSize, Replica, CurrentGroups, Layout), which snapshot it under mu.
type Cluster struct {
	replicas int
	owner    bool // views produced by Sub must not close the servers

	// mu guards the slot table; elastic serializes whole reshape
	// operations (which release mu while shipping data).
	mu      sync.Mutex
	elastic sync.Mutex
	slots   [][]*slotMeta

	baseDir   string // parent dir for cluster-owned partition copies
	poolBytes int64  // buffer-manager budget of every slot
	// root, set by StartCluster, is the temporary directory its partitions
	// were built in; the owning Close removes it.
	root string

	// hook is shared with every server the cluster starts, so one
	// SetShipHook reaches every pull.
	hook *shipHook

	// warmReplica, when set (SetReplicaWarmer), runs against every freshly
	// bootstrapped replica before it enters the serving rotation.
	warmReplica func(*Server) error
}

// shipHook holds the observer SetShipHook installs — the chaos-injection
// point tests cut a pull through.
type shipHook struct {
	mu sync.Mutex
	fn func(seg, file string, off int64) error
}

// load returns the current observer (nil when none is set, or for a
// server started outside a cluster).
func (h *shipHook) load() func(seg, file string, off int64) error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fn
}

// SetShipHook installs an observer called before every chunk any pull
// writes: AddReplica's, and every replica's catch-up pull during
// Broker.Add, on every server the cluster starts. An error return aborts
// that pull at that chunk — the failure-injection point for chaos tests.
// Pass nil to clear.
func (cl *Cluster) SetShipHook(fn func(seg, file string, off int64) error) {
	cl.hook.mu.Lock()
	cl.hook.fn = fn
	cl.hook.mu.Unlock()
}

// SetReplicaWarmer installs a warm-up pass run on every replica AddReplica
// bootstraps, after the shipped state is installed and serving locally but
// BEFORE any broker is retargeted onto it — typically Server.Warm with a
// representative query sample, so the first production query against the
// new replica does not pay its cold-start cost. An error fails the add
// (the new server is closed and its directory removed, the resumable-step
// contract). Pass nil to clear.
func (cl *Cluster) SetReplicaWarmer(fn func(*Server) error) {
	cl.mu.Lock()
	cl.warmReplica = fn
	cl.mu.Unlock()
}

// servers snapshots every slot's server, group-major in slot order.
func (cl *Cluster) servers() []*Server {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []*Server
	for _, g := range cl.slots {
		for _, sl := range g {
			out = append(out, sl.srv)
		}
	}
	return out
}

// currentGroupsLocked snapshots the replica-group address lists (mu held).
func (cl *Cluster) currentGroupsLocked() [][]string {
	groups := make([][]string, len(cl.slots))
	for p, g := range cl.slots {
		groups[p] = make([]string, len(g))
		for r, sl := range g {
			groups[p][r] = sl.addr
		}
	}
	return groups
}

// CurrentGroups returns a snapshot of each partition's replica addresses —
// the shape DialGroups consumes; safe to call while a reshape is in flight.
func (cl *Cluster) CurrentGroups() [][]string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.currentGroupsLocked()
}

// Partitions returns the number of partition ranges (replica groups).
func (cl *Cluster) Partitions() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.slots)
}

// Replicas returns the replica-group size the cluster started with
// (1 = unreplicated). Elastic operations can make groups ragged; GroupSize
// reports a live group's actual size.
func (cl *Cluster) Replicas() int { return cl.replicas }

// GroupSize returns partition p's current replica count.
func (cl *Cluster) GroupSize(p int) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.slots[p])
}

// Replica returns partition p's replica r.
func (cl *Cluster) Replica(p, r int) *Server {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.slots[p][r].srv
}

// ReplicaPlacement is one slot of a partition's layout: its address, the
// logical host label it is placed on, and the directory it serves.
type ReplicaPlacement struct {
	Addr string
	Host string
	Dir  string
}

// PartitionLayout describes one partition range: the first docid it owns
// and its replica placements, in slot order.
type PartitionLayout struct {
	Lo       int64
	Replicas []ReplicaPlacement
}

// Layout reports the cluster's live shape — each partition's first docid
// (read from its manifest) and replica placements. This is what the
// topology reconciler diffs a desired spec against.
func (cl *Cluster) Layout() ([]PartitionLayout, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]PartitionLayout, len(cl.slots))
	for p, g := range cl.slots {
		lo, err := partitionLo(g[0].dir)
		if err != nil {
			return nil, err
		}
		pl := PartitionLayout{Lo: lo}
		for _, sl := range g {
			pl.Replicas = append(pl.Replicas, ReplicaPlacement{Addr: sl.addr, Host: sl.host, Dir: sl.dir})
		}
		out[p] = pl
	}
	return out, nil
}

// partitionLo reads the first docid a partition directory owns.
func partitionLo(dir string) (int64, error) {
	sm, err := storage.ReadSegments(dir)
	if err != nil {
		return 0, err
	}
	if len(sm.Segments) > 0 {
		return sm.Segments[0].DocBase, nil
	}
	return sm.BaseDocID, nil
}

// NewBroker dials a broker over the cluster's current replica groups
// (DialGroups over CurrentGroups).
func (cl *Cluster) NewBroker(opts ...BrokerOption) (*Broker, error) {
	return DialGroups(cl.CurrentGroups(), opts...)
}

// StartCluster range-partitions the collection across n partitions,
// builds every partition index with the collection's *global* statistics
// (so per-node BM25 scores are comparable and the merged top-k equals the
// centralized one) into a temporary directory the cluster owns
// (BuildPartitions), and serves those directories exactly as
// StartClusterFromDirs does with an unbounded buffer-manager budget — one
// TCP server per partition replica (WithReplicas; one by default). Close
// removes the directory.
func StartCluster(c *corpus.Collection, n int, opts ...ClusterOption) (*Cluster, error) {
	root, err := os.MkdirTemp("", "x100-cluster-")
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	dirs, err := BuildPartitions(c, n, ir.DefaultBuildConfig(), root)
	var cl *Cluster
	if err == nil {
		cl, err = StartClusterFromDirs(dirs, 0, opts...)
	}
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	cl.root = root
	return cl, nil
}

// eachPartition runs build(i, baseDir/part-<i>) for the n partitions in
// parallel and returns the directories in partition order, or every
// partition's error joined.
func eachPartition(n int, baseDir string, build func(i int, dir string) error) ([]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: partition count %d < 1", n)
	}
	dirs := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range dirs {
		dirs[i] = filepath.Join(baseDir, fmt.Sprintf("part-%d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = build(i, dirs[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return dirs, nil
}

// BuildPartitions range-partitions the collection, builds every partition
// index with the *global* statistics (idf and quantization bounds, so the
// distributed merge equals the centralized ranking), and persists each one
// under baseDir/part-<i> as a one-segment index directory. It returns the
// partition directories in partition order. This is the offline half of a
// persisted deployment: run it once, then any number of server processes
// open the directories with StartClusterFromDirs — no corpus in sight.
// Partition builds run in parallel. Replication needs nothing here:
// StartClusterFromDirs copies a directory for each extra replica.
func BuildPartitions(c *corpus.Collection, n int, cfg ir.BuildConfig, baseDir string) ([]string, error) {
	return BuildSegmentedPartitions(c, n, 1, cfg, baseDir)
}

// BuildSegmentedPartitions is BuildPartitions emitting each partition as
// segsPer segments (contiguous docid sub-ranges). Statistics stay globally
// coordinated — every segment of every partition is built with the
// collection-wide idf, document statistics and quantization bounds, and
// the directories are marked external so nothing recomputes them locally
// — which preserves the merged-equals-centralized ranking guarantee across
// partition, segment, and replica boundaries.
func BuildSegmentedPartitions(c *corpus.Collection, n, segsPer int, cfg ir.BuildConfig, baseDir string) ([]string, error) {
	if segsPer < 1 {
		return nil, fmt.Errorf("dist: segment count %d < 1", segsPer)
	}
	cfg.Stats = ir.CollectionStats(c)
	numDocs := len(c.DocLens)
	return eachPartition(n, baseDir, func(i int, dir string) error {
		plo, phi := i*numDocs/n, (i+1)*numDocs/n
		var segs []*ir.Index
		for j := 0; j < segsPer; j++ {
			slo := plo + j*(phi-plo)/segsPer
			shi := plo + (j+1)*(phi-plo)/segsPer
			if slo >= shi {
				continue
			}
			sub, err := c.Slice(slo, shi)
			if err != nil {
				return err
			}
			bc := cfg
			bc.DocIDBase = int64(slo)
			ix, err := ir.Build(sub, bc)
			if err != nil {
				return err
			}
			segs = append(segs, ix)
		}
		return storage.WriteSegmentedIndex(dir, segs)
	})
}

// LiveDocIDStride is the docid-range stride between live ingest
// partitions: partition i owns [i*stride, (i+1)*stride). The stride
// bounds a partition at ~16M documents, and the fixed-width docid
// encodings cap global docids at 2^31 — room for 127 live partitions.
const LiveDocIDStride = 1 << 24

// BuildLivePartitions lays out n *live* partition directories under
// baseDir (part-<i>), each owning a strided docid range
// (LiveDocIDStride apart, so partitions can grow independently without
// docid collisions), and seeds partition i with the i-th contiguous
// slice of the collection as its first segment — or leaves it empty when
// the collection runs out, ready for Broker.Add to fill. Unlike
// BuildSegmentedPartitions, the directories are NOT marked external:
// statistics are partition-local and recomputed as appends land, which
// is what lets a cluster ingest without a global-statistics coordinator.
// (The trade: cross-partition score comparability drifts with skew
// between partitions' statistics. A 1-partition layout — any replica
// count — keeps partition-local statistics exactly global.) Each seed
// segment is an ordinary append (storage.AppendSegment), built the way
// every appended segment is.
func BuildLivePartitions(c *corpus.Collection, n int, baseDir string) ([]string, error) {
	numDocs := len(c.DocLens)
	return eachPartition(n, baseDir, func(i int, dir string) error {
		if err := storage.InitSegmented(dir, int64(i)*LiveDocIDStride); err != nil {
			return err
		}
		lo, hi := i*numDocs/n, (i+1)*numDocs/n
		if lo >= hi {
			return nil
		}
		sub, err := c.Slice(lo, hi)
		if err == nil {
			_, err = storage.AppendSegment(dir, sub, nil)
		}
		return err
	})
}

// StartClusterFromDirs opens persisted partition directories (from
// BuildPartitions, BuildSegmentedPartitions or BuildLivePartitions — any
// index directory) and starts one TCP server per partition replica
// (WithReplicas; one by default). Every replica owns its directory:
// replica 0 serves dirs[p] itself and replica r > 0 serves its own copy
// <dirs[p]>-r<r>, bootstrapped by storage.CopyDir (hardlinks where the
// filesystem allows) on first start and reused on later starts — a
// replica keeps its data and catches up by pulling segments from a peer.
// No replica ever sweeps, appends to or installs into another's directory.
// Nothing is rebuilt and no collection is needed: each server reads its
// manifests and serves, with posting data streaming in through a buffer
// manager with poolBytes budget (0 = unbounded) as queries arrive — the
// cold-start path a production fleet restarts through. Every server
// answers the append/fetch/pull verbs (appends and pulls land only in
// directories that own their statistics — see BuildLivePartitions), and
// the cluster supports the elastic operations (elastic.go). Opens run in
// parallel.
func StartClusterFromDirs(dirs []string, poolBytes int64, opts ...ClusterOption) (*Cluster, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("dist: no partition directories")
	}
	ccfg := applyClusterOptions(opts)
	cl := &Cluster{
		replicas:  ccfg.replicas,
		owner:     true,
		slots:     make([][]*slotMeta, len(dirs)),
		baseDir:   filepath.Dir(dirs[0]),
		poolBytes: poolBytes,
		hook:      new(shipHook),
	}
	// start serves partition p's replica r; replica 0 serves dirs[p]
	// itself.
	start := func(p, r int) error {
		dir := dirs[p]
		if r > 0 {
			// Bulk catch-up on first start is a local file copy, not the
			// wire protocol's concern.
			dir = fmt.Sprintf("%s-r%d", dirs[p], r)
			if _, err := storage.ReadSegments(dir); errors.Is(err, os.ErrNotExist) {
				if err := storage.CopyDir(dirs[p], dir); err != nil {
					return err
				}
			}
		}
		s, err := serveSegmentedDir(dir, "127.0.0.1:0", colbm.NewManager(poolBytes), cl.hook)
		if err != nil {
			return err
		}
		cl.slots[p][r] = &slotMeta{srv: s, addr: s.Addr(), dir: dir, host: fmt.Sprintf("h%d", r)}
		return nil
	}
	errs := make([]error, len(dirs)*ccfg.replicas)
	var wg sync.WaitGroup
	for p := range dirs {
		cl.slots[p] = make([]*slotMeta, ccfg.replicas)
		for r := range cl.slots[p] {
			wg.Add(1)
			go func(p, r int) {
				defer wg.Done()
				errs[p*ccfg.replicas+r] = start(p, r)
			}(p, r)
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		cl.Close() // the servers that did start
		return nil, err
	}
	return cl, nil
}

// KillReplica shuts partition p's replica r down in place — connections
// sever, in-flight requests are lost, the address goes dark — the crash
// the broker's failover and generation pinning are built to absorb.
// Revive it with ReviveReplica.
func (cl *Cluster) KillReplica(p, r int) error {
	return cl.Replica(p, r).Close()
}

// ReviveReplica restarts a killed replica on its original address,
// serving its own directory: the data it had at death, however many
// generations behind the group has moved since. Brokers redial lazily, so
// the revived node starts taking traffic on the next attempt routed its
// way — refusing queries pinned past its generation until an Add's pull
// catches it up.
func (cl *Cluster) ReviveReplica(p, r int) error {
	cl.mu.Lock()
	sl := cl.slots[p][r]
	cl.mu.Unlock()
	// The old listener's port can linger briefly after Close; retry the
	// bind rather than failing a revival that would succeed a moment
	// later.
	var s *Server
	var err error
	for deadline := time.Now().Add(2 * time.Second); ; {
		s, err = serveSegmentedDir(sl.dir, sl.addr, colbm.NewManager(cl.poolBytes), cl.hook)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return err
	}
	cl.mu.Lock()
	sl.srv = s
	cl.mu.Unlock()
	return nil
}

// Close shuts every server down and, for a StartCluster cluster, removes
// the directory its partitions were built in (no-op on Sub views, which
// share their parent's servers).
func (cl *Cluster) Close() error {
	if !cl.owner {
		return nil
	}
	cl.mu.Lock()
	slots := cl.slots
	cl.mu.Unlock()
	var first error
	for _, g := range slots {
		for _, sl := range g {
			if sl == nil {
				continue
			}
			if err := sl.srv.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if cl.root != "" {
		if err := os.RemoveAll(cl.root); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sub returns a view over the first n partitions — the
// fixed-partition-size "using less servers" rows of Table 3, where fewer
// servers also hold less data. The view shares the parent's servers
// (every replica of the retained partitions); only the parent's Close
// shuts them down.
func (cl *Cluster) Sub(n int) *Cluster {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if n > len(cl.slots) {
		n = len(cl.slots)
	}
	return &Cluster{
		replicas: cl.replicas,
		slots:    cl.slots[:n],
		hook:     cl.hook,
	}
}

// WarmAll runs the queries on every server locally (no network) at result
// depth k, leaving all buffer pools hot — the precondition of the Table 3
// measurements. Every replica of a snapshot of the slot table warms (each
// has its own pool), so a concurrent reshape cannot race the walk. Servers
// warm in parallel.
func (cl *Cluster) WarmAll(strat ir.Strategy, queries []corpus.Query, k int) error {
	servers := cl.servers()
	errs := make([]error, len(servers))
	var wg sync.WaitGroup
	for i, s := range servers {
		wg.Add(1)
		go func(i int, s *Server) {
			defer wg.Done()
			errs[i] = s.Warm(strat, queries, k)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunStreams runs the query batch through the cluster with the given
// number of concurrent streams, each stream owning its own group-aware
// broker (connections are not shared between streams; broker options such
// as WithHedging apply to every stream). Queries are dealt
// round-robin. It returns the Table 3 aggregates, including how often the
// hedge/retry defenses fired.
func (cl *Cluster) RunStreams(queries []corpus.Query, streams, k int, strat ir.Strategy, opts ...BrokerOption) (RunStats, error) {
	st := RunStats{Queries: len(queries), Streams: streams}
	if len(queries) == 0 {
		return st, nil
	}
	if streams < 1 {
		streams = 1
		st.Streams = 1
	}
	if streams > len(queries) {
		streams = len(queries)
	}

	brokers := make([]*Broker, streams)
	for i := range brokers {
		b, err := cl.NewBroker(opts...)
		if err != nil {
			for _, prev := range brokers[:i] {
				prev.Close()
			}
			return st, err
		}
		brokers[i] = b
	}
	defer func() {
		for _, b := range brokers {
			b.Close()
		}
	}()

	type acc struct {
		latency                time.Duration
		minSrv, avgSrv, maxSrv time.Duration
		n                      int
		secondPass             int
		candidates             int64
		hedged, retried        int
		err                    error
	}
	accs := make([]acc, streams)
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			a := &accs[s]
			for qi := s; qi < len(queries); qi += streams {
				_, timing, err := brokers[s].SearchContext(ctx, queries[qi].Terms, k, strat)
				if err != nil {
					a.err = err
					return
				}
				if timing.Stats.SecondPass {
					a.secondPass++
				}
				a.candidates += timing.Stats.Candidates
				a.hedged += timing.Hedged
				a.retried += timing.Retried
				a.latency += timing.Total
				min, max, sum := timing.PerServer[0], timing.PerServer[0], time.Duration(0)
				for _, d := range timing.PerServer {
					if d < min {
						min = d
					}
					if d > max {
						max = d
					}
					sum += d
				}
				a.minSrv += min
				a.maxSrv += max
				a.avgSrv += sum / time.Duration(len(timing.PerServer))
				a.n++
			}
		}(s)
	}
	wg.Wait()
	st.Total = time.Since(start)

	var latency, minSrv, avgSrv, maxSrv time.Duration
	n := 0
	for _, a := range accs {
		if a.err != nil {
			return st, a.err
		}
		latency += a.latency
		minSrv += a.minSrv
		avgSrv += a.avgSrv
		maxSrv += a.maxSrv
		n += a.n
		st.SecondPass += a.secondPass
		st.Candidates += a.candidates
		st.Hedged += a.hedged
		st.Retried += a.retried
	}
	if n > 0 {
		st.Absolute = latency / time.Duration(n)
		st.Amortized = st.Total / time.Duration(n)
		st.MinServer = minSrv / time.Duration(n)
		st.AvgServer = avgSrv / time.Duration(n)
		st.MaxServer = maxSrv / time.Duration(n)
	}
	return st, nil
}
