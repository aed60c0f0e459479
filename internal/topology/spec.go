// Package topology is the cluster's declarative control plane: a
// versioned desired-state spec (partition docid ranges, replica counts,
// host placements) serializable to TOPOLOGY.json, a differ that turns
// "desired vs. live" into an ordered list of small reconfiguration steps,
// and a reconciler that applies them one at a time — re-observing the
// cluster after every step, so a reconciler killed anywhere resumes by
// re-running, and the cluster keeps serving queries and ingest through
// every step (the elastic operations it composes are each individually
// non-disruptive).
package topology

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/storage"
)

const (
	// SpecMagic identifies a TOPOLOGY.json document.
	SpecMagic = "x100-topology"
	// SpecFormatVersion is bumped on incompatible spec changes.
	SpecFormatVersion = 1
	// SpecFileName is the canonical on-disk name of a saved spec.
	SpecFileName = "TOPOLOGY.json"
)

// ErrBadSpec reports a topology spec that fails validation — wrong magic
// or version, unsorted or duplicate partition ranges, bad replica counts,
// or a host list that disagrees with the replica count. Every parse
// failure wraps it, so callers can errors.Is without caring which rule
// tripped.
var ErrBadSpec = errors.New("topology: invalid topology spec")

// ErrStaleSpec reports a Save whose revision is older than the revision
// already on disk — a lost-update guard for operators editing the spec
// concurrently.
var ErrStaleSpec = errors.New("topology: spec revision older than the saved one")

// Spec is the desired cluster shape: every partition's docid range start,
// how many replicas serve it, and (optionally) on which hosts. Partitions
// are sorted by Lo and ranges are implicit — partition i owns
// [Partitions[i].Lo, Partitions[i+1].Lo), the last one to infinity.
type Spec struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// Revision orders spec edits; Save refuses to overwrite a newer one.
	Revision   uint64          `json:"revision"`
	Partitions []PartitionSpec `json:"partitions"`
}

// PartitionSpec is one partition range of a Spec.
type PartitionSpec struct {
	// Lo is the first docid the partition owns — the partition's identity
	// across reconfigurations (indices shift when ranges split or merge,
	// the range start does not).
	Lo int64 `json:"lo"`
	// Replicas is the desired replica count (>= 1).
	Replicas int `json:"replicas"`
	// Hosts optionally pins each replica to a logical host label; when
	// given it must have exactly Replicas entries, all distinct. Empty
	// leaves placement to the reconciler.
	Hosts []string `json:"hosts,omitempty"`
}

// Validate checks the spec's invariants, wrapping every failure in
// ErrBadSpec.
func (s *Spec) Validate() error {
	if s.Magic != SpecMagic {
		return fmt.Errorf("topology: magic %q (want %q): %w", s.Magic, SpecMagic, ErrBadSpec)
	}
	if s.Version != SpecFormatVersion {
		return fmt.Errorf("topology: format version %d (supported: %d): %w",
			s.Version, SpecFormatVersion, ErrBadSpec)
	}
	if len(s.Partitions) == 0 {
		return fmt.Errorf("topology: spec has no partitions: %w", ErrBadSpec)
	}
	for i, p := range s.Partitions {
		if p.Lo < 0 {
			return fmt.Errorf("topology: partition %d: negative range start %d: %w", i, p.Lo, ErrBadSpec)
		}
		if i > 0 && p.Lo <= s.Partitions[i-1].Lo {
			return fmt.Errorf("topology: partition %d: range start %d not after %d (ranges must be sorted and distinct): %w",
				i, p.Lo, s.Partitions[i-1].Lo, ErrBadSpec)
		}
		if p.Replicas < 1 {
			return fmt.Errorf("topology: partition %d: replica count %d < 1: %w", i, p.Replicas, ErrBadSpec)
		}
		if len(p.Hosts) != 0 {
			if len(p.Hosts) != p.Replicas {
				return fmt.Errorf("topology: partition %d: %d hosts for %d replicas: %w",
					i, len(p.Hosts), p.Replicas, ErrBadSpec)
			}
			seen := make(map[string]bool, len(p.Hosts))
			for _, h := range p.Hosts {
				if h == "" {
					return fmt.Errorf("topology: partition %d: empty host label: %w", i, ErrBadSpec)
				}
				if seen[h] {
					return fmt.Errorf("topology: partition %d: duplicate host %q: %w", i, h, ErrBadSpec)
				}
				seen[h] = true
			}
		}
	}
	return nil
}

// ParseSpec decodes and validates a TOPOLOGY.json document. Malformed
// input of any kind — bad JSON, wrong magic, truncated or duplicated
// ranges — returns an error wrapping ErrBadSpec; it never panics.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("topology: parse spec: %v: %w", err, ErrBadSpec)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode renders the spec as indented TOPOLOGY.json bytes.
func (s *Spec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Save atomically writes the spec to dir/TOPOLOGY.json (temp file +
// rename), refusing to overwrite a saved spec with a newer revision
// (ErrStaleSpec).
func Save(dir string, s *Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if cur, err := Load(dir); err == nil && cur.Revision > s.Revision {
		return fmt.Errorf("topology: saved revision %d newer than %d: %w",
			cur.Revision, s.Revision, ErrStaleSpec)
	}
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(dir, SpecFileName+".tmp-*", filepath.Join(dir, SpecFileName), data)
}

// Load reads and validates dir/TOPOLOGY.json.
func Load(dir string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(dir, SpecFileName))
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}
