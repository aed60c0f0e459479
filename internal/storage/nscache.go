package storage

import (
	"strings"

	"repro/internal/colbm"
)

// CacheView is a key-namespaced view over a shared Manager: every cache
// key is prefixed with the view's namespace before it reaches the
// manager, so several indexes whose blob names collide — co-located
// partition servers most of all: every partition directory allocates
// seg-000001 — can safely draw from ONE process-wide byte budget without
// ever reading each other's chunks. Views are cheap (two words); budget, eviction state,
// and singleflight remain the shared manager's.
//
// Stats/ResetStats deliberately report the shared manager's counters:
// occupancy and hit rates are properties of the pooled budget, and the
// prefetcher's headroom check must see the pool, not a slice of it.
type CacheView struct {
	ns string
	m  *colbm.Manager
}

// NewCacheView returns a view over m whose keys live under namespace ns
// (any non-empty string; pick distinct namespaces for indexes whose blob
// names may collide).
func NewCacheView(m *colbm.Manager, ns string) *CacheView {
	return &CacheView{ns: ns, m: m}
}

// Manager returns the shared manager behind the view.
func (v *CacheView) Manager() *colbm.Manager { return v.m }

// GetChunk implements colbm.ChunkCache under the view's namespace.
func (v *CacheView) GetChunk(key string, load func() (*colbm.CachedChunk, error)) (*colbm.CachedChunk, error) {
	return v.m.GetChunk(v.ns+key, load)
}

// Drop evicts the view's namespace only — a cold-run reset of this index
// must not flush co-tenants sharing the pool.
func (v *CacheView) Drop() { v.m.DropPrefix(v.ns) }

// DropPrefix evicts the view's chunks under the (unprefixed) prefix.
func (v *CacheView) DropPrefix(prefix string) int64 { return v.m.DropPrefix(v.ns + prefix) }

// Stats returns the shared manager's counters (see the type comment).
func (v *CacheView) Stats() CacheStats { return v.m.Stats() }

// ResetStats zeroes the shared manager's counters.
func (v *CacheView) ResetStats() { v.m.ResetStats() }

// BeginFetch claims the keys under the namespace, returning the claimed
// subset in the caller's (unprefixed) key space.
func (v *CacheView) BeginFetch(keys []string) []string {
	pk := make([]string, len(keys))
	for i, k := range keys {
		pk[i] = v.ns + k
	}
	claimed := v.m.BeginFetch(pk)
	out := make([]string, len(claimed))
	for i, k := range claimed {
		out[i] = strings.TrimPrefix(k, v.ns)
	}
	return out
}

// EndFetch completes a BeginFetch issued through this view.
func (v *CacheView) EndFetch(claimed []string, chunks map[string]*colbm.CachedChunk, err error) {
	pk := make([]string, len(claimed))
	for i, k := range claimed {
		pk[i] = v.ns + k
	}
	var pc map[string]*colbm.CachedChunk
	if chunks != nil {
		pc = make(map[string]*colbm.CachedChunk, len(chunks))
		for k, c := range chunks {
			pc[v.ns+k] = c
		}
	}
	v.m.EndFetch(pk, pc, err)
}

// Admit offers a chunk under the namespace (see Manager.Admit).
func (v *CacheView) Admit(key string, c *colbm.CachedChunk) bool {
	return v.m.Admit(v.ns+key, c)
}

var (
	_ colbm.ChunkCache = (*CacheView)(nil)
	_ FetchCache       = (*CacheView)(nil)
	_ FetchCache       = (*colbm.Manager)(nil)
)
