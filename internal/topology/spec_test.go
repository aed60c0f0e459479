package topology

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validSpec() *Spec {
	return &Spec{
		Magic:    SpecMagic,
		Version:  SpecFormatVersion,
		Revision: 3,
		Partitions: []PartitionSpec{
			{Lo: 0, Replicas: 2, Hosts: []string{"h0", "h1"}},
			{Lo: 1 << 24, Replicas: 1},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring of the error; "" = valid
	}{
		{"valid", func(*Spec) {}, ""},
		{"bad magic", func(s *Spec) { s.Magic = "x100-segments" }, "magic"},
		{"bad version", func(s *Spec) { s.Version = 99 }, "version"},
		{"no partitions", func(s *Spec) { s.Partitions = nil }, "no partitions"},
		{"negative lo", func(s *Spec) { s.Partitions[0].Lo = -1 }, "negative range start"},
		{"duplicate range", func(s *Spec) { s.Partitions[1].Lo = 0 }, "sorted and distinct"},
		{"unsorted ranges", func(s *Spec) { s.Partitions[0].Lo = 1 << 25 }, "sorted and distinct"},
		{"zero replicas", func(s *Spec) { s.Partitions[1].Replicas = 0 }, "replica count"},
		{"host count mismatch", func(s *Spec) { s.Partitions[0].Hosts = []string{"h0"} }, "hosts for"},
		{"empty host", func(s *Spec) { s.Partitions[0].Hosts = []string{"h0", ""} }, "empty host"},
		{"duplicate host", func(s *Spec) { s.Partitions[0].Hosts = []string{"h0", "h0"} }, "duplicate host"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.want)
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Errorf("Validate() = %v, does not wrap ErrBadSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestSpecSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := validSpec()
	if err := Save(dir, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Revision != s.Revision || len(got.Partitions) != len(s.Partitions) {
		t.Fatalf("round trip: got %+v, want %+v", got, s)
	}
	for i := range s.Partitions {
		if got.Partitions[i].Lo != s.Partitions[i].Lo ||
			got.Partitions[i].Replicas != s.Partitions[i].Replicas {
			t.Fatalf("partition %d: got %+v, want %+v", i, got.Partitions[i], s.Partitions[i])
		}
	}

	// A stale revision is refused; an equal or newer one wins.
	stale := validSpec()
	stale.Revision = 2
	if err := Save(dir, stale); !errors.Is(err, ErrStaleSpec) {
		t.Fatalf("Save(stale) = %v, want ErrStaleSpec", err)
	}
	newer := validSpec()
	newer.Revision = 4
	newer.Partitions[1].Replicas = 3
	if err := Save(dir, newer); err != nil {
		t.Fatal(err)
	}
	got, err = Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Revision != 4 || got.Partitions[1].Replicas != 3 {
		t.Fatalf("after overwrite: got %+v", got)
	}

	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != SpecFileName {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("spec dir holds %v, want exactly [%s]", names, SpecFileName)
	}
}

// TestSaveFailedRenameLeavesNoTempFile: when the final rename fails (here
// TOPOLOGY.json is a directory), Save reports the error and removes the
// temporary file it wrote.
func TestSaveFailedRenameLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, SpecFileName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(dir, validSpec()); err == nil {
		t.Fatal("Save over a directory named TOPOLOGY.json succeeded")
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("failed Save left %v behind", tmps)
	}
}

func TestLoadRejectsCorruptSpec(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SpecFileName), []byte(`{"magic":"x100-topology"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Load(truncated) = %v, want ErrBadSpec", err)
	}
}

// FuzzParseSpec is the control plane's input hardening property: whatever
// bytes land in TOPOLOGY.json, ParseSpec either returns a valid spec or
// an error wrapping ErrBadSpec — it never panics and never returns a spec
// that fails validation.
func FuzzParseSpec(f *testing.F) {
	valid, err := validSpec().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"magic":"x100-topology","version":1,"partitions":[]}`))
	f.Add([]byte(`{"magic":"nope","version":1,"partitions":[{"lo":0,"replicas":1}]}`))
	// Duplicate range starts.
	f.Add([]byte(`{"magic":"x100-topology","version":1,"partitions":[{"lo":0,"replicas":1},{"lo":0,"replicas":1}]}`))
	// Host list disagreeing with the replica count.
	f.Add([]byte(`{"magic":"x100-topology","version":1,"partitions":[{"lo":0,"replicas":2,"hosts":["a"]}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseSpec error %v does not wrap ErrBadSpec", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec its own Validate rejects: %v", err)
		}
		// Accepted specs survive an encode/parse round trip.
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("Encode of accepted spec: %v", err)
		}
		if _, err := ParseSpec(enc); err != nil {
			t.Fatalf("re-parse of encoded spec: %v", err)
		}
	})
}
