package storage

import "repro/internal/colbm"

// BlockStore is colbm's storage contract; FileStore (here) and
// colbm.SimDisk are its two implementations.
type BlockStore = colbm.BlockStore

// DiskStats aggregates the read activity of a BlockStore.
type DiskStats = colbm.DiskStats

// Manager and NewManager name the buffer manager that moved to colbm. They
// remain only because bench/ (frozen by BENCHMARK.json) still calls
// storage.NewManager; everything else uses colbm.NewManager.
type Manager = colbm.Manager

// NewManager returns colbm.NewManager(budget).
func NewManager(budget int64) *Manager { return colbm.NewManager(budget) }
