package colbm

import (
	"fmt"
	"testing"
)

// BenchmarkBufferManagerGet isolates the manager's hot path: a resident
// lookup under a single goroutine (hit latency) and under parallel load.
func BenchmarkBufferManagerGet(b *testing.B) {
	m := NewManager(1 << 30)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("TD.docidc#%d", i)
		if _, err := m.GetChunk(keys[i], func() (*CachedChunk, error) {
			return &CachedChunk{Raw: make([]byte, 1024), Size: 1024}, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	load := func() (*CachedChunk, error) { b.Fatal("unexpected miss"); return nil, nil }
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.GetChunk(keys[i%len(keys)], load); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := m.GetChunk(keys[i%len(keys)], load); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}
