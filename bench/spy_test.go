package main

import (
	"context"
	"reflect"
	"testing"

	"onocsim"
	"onocsim/internal/core"
	"onocsim/internal/noc"
)

// The decorator must not change what the engine computes, nor which path it
// takes: a wrapped correction equals the bare one field for field, and the
// wrapper answers the capability assertions as the fabric underneath does.
func TestSpyIsTransparent(t *testing.T) {
	cfg := kernelConfig(3, "stencil", 16, smokeSize)
	tr, _, err := onocsim.CaptureTraceContext(context.Background(), cfg, onocsim.IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []onocsim.NetworkKind{onocsim.Optical, onocsim.Electrical} {
		for _, incremental := range []bool{false, true} {
			bare, err := onocsim.NetworkFactory(cfg, kind)
			if err != nil {
				t.Fatal(err)
			}
			st := new(fabricStats)
			wrapped, err := spyFactory(bare, st)
			if err != nil {
				t.Fatal(err)
			}
			sctm := cfg.SCTM
			sctm.Incremental = incremental // the checkpointing path asks for noc.Checkpointer
			want, err := core.SelfCorrect(bare, tr, sctm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.SelfCorrect(wrapped, tr, sctm)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s incremental=%v: decorated correction differs from the bare one", kind, incremental)
			}
			if st.tick.calls == 0 || st.inject.calls == 0 || st.busy() <= 0 {
				t.Errorf("%s: decorator saw no work: %+v", kind, st)
			}

			net := wrapped()
			if _, ok := net.(noc.Resettable); !ok {
				t.Errorf("%s: wrapper lost noc.Resettable", kind)
			}
			if _, ok := net.(noc.Checkpointer); !ok {
				t.Errorf("%s: wrapper lost noc.Checkpointer", kind)
			}
			_, bareShardable := bare().(noc.ScheduleShardable)
			if _, ok := net.(noc.ScheduleShardable); ok != bareShardable {
				t.Errorf("%s: wrapper claims ScheduleShardable=%v, fabric %v", kind, ok, bareShardable)
			}
		}
	}
}

// The sharded engine must take its sharded path through the wrapper too.
func TestSpyKeepsShardedReplayIdentical(t *testing.T) {
	cfg := kernelConfig(3, "stencil", 16, smokeSize)
	tr, _, err := onocsim.CaptureTraceContext(context.Background(), cfg, onocsim.IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := onocsim.NetworkFactory(cfg, onocsim.Optical)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NaiveReplaySharded(bare, tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shard replicas tick concurrently, so each gets a tally of its own.
	wrapped := func() noc.Network {
		n, err := spy(bare(), new(fabricStats))
		if err != nil {
			t.Error(err)
		}
		return n
	}
	got, err := core.NaiveReplaySharded(wrapped, tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("decorated sharded replay differs from the bare one")
	}
}
