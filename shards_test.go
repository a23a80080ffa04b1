package onocsim

import (
	"strings"
	"testing"
)

// TestShardsExcludedFromFingerprint pins the cache-compatibility contract:
// the two shard counts a document may carry both mean one fabric, so they
// must not split the result-memo or disk-cache key space.
func TestShardsExcludedFromFingerprint(t *testing.T) {
	base := smallConfig()
	fp0, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1} {
		cfg := base
		cfg.Parallelism.Shards = k
		fp, err := cfg.Fingerprint()
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if fp != fp0 {
			t.Errorf("shards=%d changes fingerprint: %s vs %s", k, fp, fp0)
		}
	}
}

// TestShardsValidation: Config.Validate accepts parallelism.shards 0 and 1,
// which both mean one fabric, and refuses any other count by name, as it
// refuses sctm.incremental.
func TestShardsValidation(t *testing.T) {
	for _, k := range []int{0, 1} {
		cfg := smallConfig()
		cfg.Parallelism.Shards = k
		if err := cfg.Validate(); err != nil {
			t.Errorf("shards=%d rejected: %v", k, err)
		}
	}
	for _, k := range []int{-1, 2} {
		cfg := smallConfig()
		cfg.Parallelism.Shards = k
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "parallelism.shards") {
			t.Errorf("shards=%d: err = %v, want a refusal naming parallelism.shards", k, err)
		}
	}
}
