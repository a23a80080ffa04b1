package main

import (
	"fmt"
	"sort"
	"time"

	"onocsim/internal/core"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// sampleEvery is the stride at which the fabric decorator reads the clock:
// a mesh tick costs microseconds but a crossbar tick tens of nanoseconds, so
// timing every call would double the cost of the thing being measured. Every
// call is counted; one in sampleEvery is timed and the layer's busy time is
// the sampled mean times the count. A prime stride shares no factor with the
// fabrics' own periods (flit widths and token rings are powers of two), and
// at one in 31 the decorated crossbar replay stays within a few percent of
// the bare one.
const sampleEvery = 31

// clockCost is the time one start/stop pair of clock reads adds to a sampled
// call, measured once and subtracted from every sample.
var clockCost = func() time.Duration {
	d := make([]time.Duration, 2001)
	for i := range d {
		t := time.Now()
		d[i] = time.Since(t)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}()

// callStat counts one method of the wrapped fabric and times a sample of it.
type callStat struct {
	calls, sampled uint64
	sampledTime    time.Duration
}

// busy extrapolates the sampled time to every call.
func (c *callStat) busy() time.Duration {
	if c.sampled == 0 {
		return 0
	}
	return time.Duration(float64(c.sampledTime) / float64(c.sampled) * float64(c.calls))
}

// fabricStats is what the decorator learns about one fabric kind: how often
// the replay engine called into it, for how long, and how many cycles it let
// the fabric skip. One fabricStats is shared by every fabric a wrapped
// factory builds, so a correction's rounds add up.
type fabricStats struct {
	inject, tick, wake, skip callStat
	skippedCycles            uint64
}

func (f *fabricStats) busy() time.Duration {
	return f.inject.busy() + f.tick.busy() + f.wake.busy() + f.skip.busy()
}

func (f *fabricStats) callCount() uint64 {
	return f.inject.calls + f.tick.calls + f.wake.calls + f.skip.calls
}

// skippedFrac is the share of simulated cycles the fabric slept through.
func (f *fabricStats) skippedFrac() float64 {
	total := f.skippedCycles + f.tick.calls
	if total == 0 {
		return 0
	}
	return float64(f.skippedCycles) / float64(total)
}

// spyNet decorates a fabric from outside: it counts and times the four calls
// the engines drive a fabric with and forwards everything else. It forwards
// Reset, Snapshot and Restore — every fabric in the repository has them — so
// an engine that asks for noc.Resettable or noc.Checkpointer gets the same
// answer, and takes the same path, as on the bare fabric.
type spyNet struct {
	noc.Network
	reset noc.Resettable
	ckpt  noc.Checkpointer
	st    *fabricStats
}

func (s *spyNet) Inject(m *noc.Message) {
	c := &s.st.inject
	c.calls++
	if c.calls%sampleEvery != 0 {
		s.Network.Inject(m)
		return
	}
	t := time.Now()
	s.Network.Inject(m)
	c.add(time.Since(t))
}

func (s *spyNet) Tick() {
	c := &s.st.tick
	c.calls++
	if c.calls%sampleEvery != 0 {
		s.Network.Tick()
		return
	}
	t := time.Now()
	s.Network.Tick()
	c.add(time.Since(t))
}

func (s *spyNet) NextWake() sim.Tick {
	c := &s.st.wake
	c.calls++
	if c.calls%sampleEvery != 0 {
		return s.Network.NextWake()
	}
	t := time.Now()
	w := s.Network.NextWake()
	c.add(time.Since(t))
	return w
}

func (s *spyNet) SkipTo(to sim.Tick) {
	c := &s.st.skip
	c.calls++
	if d := to - s.Network.Now(); d > 0 {
		s.st.skippedCycles += uint64(d)
	}
	if c.calls%sampleEvery != 0 {
		s.Network.SkipTo(to)
		return
	}
	t := time.Now()
	s.Network.SkipTo(to)
	c.add(time.Since(t))
}

func (c *callStat) add(d time.Duration) {
	c.sampled++
	if d > clockCost {
		c.sampledTime += d - clockCost
	}
}

func (s *spyNet) Reset()                  { s.reset.Reset() }
func (s *spyNet) Snapshot() noc.Snapshot  { return s.ckpt.Snapshot() }
func (s *spyNet) Restore(sn noc.Snapshot) { s.ckpt.Restore(sn) }

// spyShardable is spyNet for the fabrics that also factorize per node (the
// crossbars and the ideal fabric); the mesh and the hybrid must not claim
// noc.ScheduleShardable, hence the second type.
type spyShardable struct {
	spyNet
	shard noc.ScheduleShardable
}

func (s *spyShardable) ShardNode(src, dst int) int      { return s.shard.ShardNode(src, dst) }
func (s *spyShardable) SetShardObs(fn noc.ShardObsFunc) { s.shard.SetShardObs(fn) }
func (s *spyShardable) SeqOrder() noc.SeqOrder          { return s.shard.SeqOrder() }

// spy wraps net so that calls into it are charged to st.
func spy(net noc.Network, st *fabricStats) (noc.Network, error) {
	reset, okR := net.(noc.Resettable)
	ckpt, okC := net.(noc.Checkpointer)
	if !okR || !okC {
		return nil, fmt.Errorf("bench: fabric %T is not resettable and checkpointable; the decorator would change the engine's path", net)
	}
	base := spyNet{Network: net, reset: reset, ckpt: ckpt, st: st}
	if sh, ok := net.(noc.ScheduleShardable); ok {
		return &spyShardable{spyNet: base, shard: sh}, nil
	}
	return &base, nil
}

// spyFactory wraps every fabric the factory builds. The first build is
// checked here, so the factory itself cannot fail later. The fabrics share
// one unsynchronised tally: this is for the serial engines the workloads'
// configs select (Parallelism.Shards = 1), not for shard replicas that tick
// side by side.
func spyFactory(factory core.NetworkFactory, st *fabricStats) (core.NetworkFactory, error) {
	if _, err := spy(factory(), new(fabricStats)); err != nil {
		return nil, err
	}
	return func() noc.Network {
		n, _ := spy(factory(), st)
		return n
	}, nil
}
