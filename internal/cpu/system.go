package cpu

import (
	"fmt"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// coreRangeShift sizes the tile ranges tracked by System.runningInRange:
// ranges of 1<<coreRangeShift tiles. 32 keeps the range vector tiny while
// still letting large chips skip most of the core array when only a few
// tiles are runnable.
const (
	coreRangeShift = 5
	coreRangeSize  = 1 << coreRangeShift
)

// The chip's fixed microarchitecture. No study varies these, so they are
// constants of the model rather than options of the config document
// (DESIGN §12).
const (
	// L1Sets, L1Ways and L1LineBytes size the private L1 data cache; the
	// kernels lay their data out in L1LineBytes lines.
	L1Sets      = 64
	L1Ways      = 4
	L1LineBytes = 64
	// L2HitCycles is the bank access latency.
	L2HitCycles sim.Tick = 6
	// MemCycles is the off-chip memory access latency beyond L2.
	MemCycles sim.Tick = 120
	// CtrlBytes and DataBytes are the network payload sizes of a control
	// message (request/ack/inv) and a data-bearing message.
	CtrlBytes = 8
	DataBytes = 72
)

// System couples the cores and home banks to a fabric and drives the whole
// chip cycle by cycle. The same System runs execution-driven ground truth
// (no recorder) and trace capture (with recorder) on any noc.Network.
type System struct {
	cfg   config.Config
	net   noc.Network
	nodes int
	now   sim.Tick
	// l1Sets and l1Ways size every core's L1: L1Sets and L1Ways, or the
	// degenerate geometry a package test needs.
	l1Sets, l1Ways int

	cores []*core
	banks []*bank

	// runningInRange[r] counts cores in state coreRunning within tile range
	// r (ranges of 1<<coreRangeShift tiles), maintained by core.setState.
	// The tick step loop and nextWake skip ranges with a zero count: step
	// is a no-op for every non-running core, and nothing inside the step
	// loop can wake a core (unblocks happen only during inbox dispatch and
	// fabric delivery, both earlier in the cycle), so the skip is
	// observationally identical to stepping every core.
	runningInRange []int

	rec   *trace.Recorder
	msgID uint64

	// memTiles lists the memory-controller tiles, derived from
	// cfg.System.MemPorts at construction; empty when off-chip latency is
	// folded into the home bank (MemPorts == 0).
	memTiles []int

	inbox []arrivedMsg
	// inboxSpare is the second half of the inbox double buffer: tick
	// swaps it in before dispatching so the in-flight batch is never
	// aliased, and both backing arrays are recycled for the whole run.
	inboxSpare []arrivedMsg
	// pool recycles fabric messages: a Message dies in onDeliver as soon
	// as its fields are copied into the inbox, so steady state re-injects
	// the same handful of allocations.
	pool noc.MsgPool
	// eng schedules delayed bank responses: the bank occupancy model is
	// a small discrete-event simulation riding on the synchronous tick
	// loop (RunUntil flushes the events due each cycle).
	eng *sim.Engine
}

// NewSystem builds a chip from a validated config, per-core programs, and a
// fabric. programs must have exactly one entry per core. rec may be nil.
func NewSystem(cfg config.Config, programs []Program, net noc.Network, rec *trace.Recorder) (*System, error) {
	return newSystem(cfg, programs, net, rec, L1Sets, L1Ways)
}

// newSystem is NewSystem with the given L1 geometry.
func newSystem(cfg config.Config, programs []Program, net noc.Network, rec *trace.Recorder, l1Sets, l1Ways int) (*System, error) {
	if len(programs) != cfg.System.Cores {
		return nil, fmt.Errorf("cpu: %d programs for %d cores", len(programs), cfg.System.Cores)
	}
	if net.Nodes() != cfg.System.Cores {
		return nil, fmt.Errorf("cpu: fabric has %d nodes, system has %d cores", net.Nodes(), cfg.System.Cores)
	}
	memTiles, err := memControllerTiles(&cfg)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, net: net, nodes: cfg.System.Cores, l1Sets: l1Sets, l1Ways: l1Ways, rec: rec, eng: sim.NewEngine(), memTiles: memTiles}
	s.runningInRange = make([]int, (cfg.System.Cores+coreRangeSize-1)>>coreRangeShift)
	for i, p := range programs {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("cpu: core %d: %w", i, err)
		}
		s.cores = append(s.cores, newCore(i, s, p))
		s.runningInRange[i>>coreRangeShift]++ // cores start coreRunning
	}
	for i := 0; i < s.nodes; i++ {
		s.banks = append(s.banks, newBank(i, s))
	}
	net.SetDeliver(s.onDeliver)
	return s, nil
}

// homeOf maps a line to its home tile (S-NUCA line interleaving).
func (s *System) homeOf(line uint64) int { return int(line % uint64(s.nodes)) }

// homeOfSync maps a lock/barrier ID to its manager tile.
func (s *System) homeOfSync(id uint64) int { return int(id % uint64(s.nodes)) }

// memControllerTiles derives the controller tile list from MemPorts: the
// first MemPorts chip corners, in the fixed order NW, NE, SW, SE. Config
// validation enforces the same bound, but NewSystem also accepts configs
// that were never validated, so the range is re-checked here — an
// out-of-range port count must be a construction error, not a replay-time
// index panic.
func memControllerTiles(cfg *config.Config) ([]int, error) {
	ports := cfg.System.MemPorts
	w := cfg.MeshWidth()
	corners := []int{0, w - 1, (w - 1) * w, cfg.System.Cores - 1}
	if ports < 0 || ports > len(corners) {
		return nil, fmt.Errorf("cpu: mem_ports=%d out of [0,%d]: controllers sit at the chip corners", ports, len(corners))
	}
	return corners[:ports], nil
}

// memControllerOf maps a line to its memory controller tile,
// line-interleaved across the tiles derived at construction.
func (s *System) memControllerOf(line uint64) int {
	return s.memTiles[int(line%uint64(len(s.memTiles)))]
}

// bytesFor returns the fabric payload size of a protocol message.
func (s *System) bytesFor(pm *protoMsg) int {
	if pm.isData() {
		return DataBytes
	}
	return CtrlBytes
}

// inject records (if capturing) and injects a protocol message now.
func (s *System) inject(src, dst int, pm *protoMsg, deps []trace.Dep, depTime sim.Tick) {
	if s.rec != nil {
		pm.traceID = s.rec.RecordSend(trace.SendInfo{
			Src:         src,
			Dst:         dst,
			Bytes:       s.bytesFor(pm),
			Class:       pm.class(),
			Kind:        pm.traceKind(),
			Deps:        deps,
			DepResolved: depTime,
			Now:         s.now,
		})
	}
	s.msgID++
	m := s.pool.Get()
	m.ID = s.msgID
	m.Src = src
	m.Dst = dst
	m.Bytes = s.bytesFor(pm)
	m.Class = pm.class()
	m.Payload = pm
	s.net.Inject(m)
}

// send schedules a message after a service delay (bank responses).
func (s *System) send(src, dst int, pm *protoMsg, delay sim.Tick, deps []trace.Dep, depTime sim.Tick) {
	if delay <= 0 {
		s.inject(src, dst, pm, deps, depTime)
		return
	}
	s.eng.Schedule(s.now+delay, func() {
		s.inject(src, dst, pm, deps, depTime)
	})
}

// sendFromCore routes a core-originated message to its implicit home.
func (s *System) sendFromCore(c *core, pm *protoMsg, deps []trace.Dep, depTime sim.Tick) {
	var dst int
	switch pm.typ {
	case mGetS, mGetM, mWB:
		dst = s.homeOf(pm.line)
	case mLockReq, mLockRel, mBarArrive:
		dst = s.homeOfSync(pm.id)
	default:
		panic(fmt.Sprintf("cpu: core message %s has no implicit home", pm.typ))
	}
	s.inject(c.id, dst, pm, deps, depTime)
}

// sendFromCoreTo routes a core-originated message to an explicit node.
func (s *System) sendFromCoreTo(c *core, dst int, pm *protoMsg, deps []trace.Dep, depTime sim.Tick) {
	s.inject(c.id, dst, pm, deps, depTime)
}

// onDeliver collects fabric deliveries; they are dispatched after the
// fabric tick completes so handler-triggered sends see a settled cycle.
// The fabric holds no reference to m after this returns, so the message
// goes straight back to the pool.
func (s *System) onDeliver(m *noc.Message) {
	pm, ok := m.Payload.(*protoMsg)
	if !ok {
		panic(fmt.Sprintf("cpu: delivery %d carries foreign payload %T", m.ID, m.Payload))
	}
	s.inbox = append(s.inbox, arrivedMsg{msg: pm, dst: m.Dst, at: m.Arrive})
	s.pool.Put(m)
}

// tick advances the whole chip one cycle.
func (s *System) tick() {
	s.net.Tick()
	s.now = s.net.Now()

	// Dispatch deliveries in fabric order. The inbox double buffer keeps
	// the in-flight batch unaliased while recycling both backing arrays:
	// the old `inbox[len(inbox):]` re-slice stranded the consumed prefix
	// and forced a fresh allocation every burst.
	if len(s.inbox) > 0 {
		batch := s.inbox
		s.inbox = s.inboxSpare[:0]
		for _, am := range batch {
			if s.rec != nil && am.msg.traceID != trace.None {
				s.rec.RecordArrive(am.msg.traceID, am.at)
			}
			switch am.msg.typ {
			case mGetS, mGetM, mWB, mInvAck, mWBData, mRecallAck,
				mLockReq, mLockRel, mBarArrive, mMemReq, mMemResp:
				s.banks[am.dst].handle(am)
			default:
				s.cores[am.dst].handle(am)
			}
		}
		// Recycle the consumed batch as the next spare. Deliveries only
		// happen inside net.Tick, so nothing was appended to the fresh
		// inbox while the batch was being dispatched.
		s.inboxSpare = batch[:0]
	}

	// Flush bank responses whose service delay expired.
	s.eng.RunUntil(s.now)

	// Advance cores, skipping whole tile ranges with no running core.
	// step() never wakes another core (unblocks happen only during inbox
	// dispatch above), so a range that starts the loop at zero stays at
	// zero, and the skip cannot miss work.
	for r, n := range s.runningInRange {
		if n == 0 {
			continue
		}
		base := r << coreRangeShift
		hi := base + coreRangeSize
		if hi > len(s.cores) {
			hi = len(s.cores)
		}
		for _, c := range s.cores[base:hi] {
			c.step()
		}
	}
}

// RunResult summarizes an execution-driven run.
type RunResult struct {
	// Makespan is the cycle the last core finished its program.
	Makespan sim.Tick
	// Cycles is the number of simulated cycles: when the last in-flight
	// message retired.
	Cycles sim.Tick
	// Messages is the total fabric message count.
	Messages uint64
}

// nextWake returns the earliest future cycle at which any chip component
// could do observable work: a running core reaching busyUntil, a pending
// bank-response event, or the fabric's own wake-up. Blocked cores are woken
// exclusively by deliveries, which the fabric/engine terms already cover.
// Cycles strictly before the returned value are provably no-ops.
func (s *System) nextWake() sim.Tick {
	if len(s.inbox) > 0 {
		return s.now + 1
	}
	// Scan the cores first: on a busy chip some core is almost always due
	// next cycle, and the early-out then spares the fabric's (potentially
	// channel-scanning) NextWake entirely.
	wake := noc.Never
	for r, n := range s.runningInRange {
		if n == 0 {
			continue
		}
		base := r << coreRangeShift
		hi := base + coreRangeSize
		if hi > len(s.cores) {
			hi = len(s.cores)
		}
		for _, c := range s.cores[base:hi] {
			if c.state != coreRunning {
				continue
			}
			if c.busyUntil <= s.now+1 {
				return s.now + 1
			}
			if c.busyUntil < wake {
				wake = c.busyUntil
			}
		}
	}
	if at, ok := s.eng.NextAt(); ok && at < wake {
		wake = at
	}
	if nw := s.net.NextWake(); nw < wake {
		wake = nw
	}
	return wake
}

// Run drives the system until every core finishes and the fabric drains,
// or errors out at the cycle bound (indicating livelock or an undersized
// bound). Provably idle stretches — all cores blocked or mid-compute,
// nothing due in the fabric or the bank engine — are fast-forwarded without
// changing any observable timing.
func (s *System) Run(maxCycles int64) (RunResult, error) {
	bound := sim.Tick(maxCycles)
	for {
		s.tick()
		if s.done() {
			break
		}
		if s.now >= bound {
			return RunResult{}, fmt.Errorf("cpu: simulation exceeded %d cycles (cores: %s)", maxCycles, s.coreStates())
		}
		if wake := s.nextWake(); wake > s.now+1 {
			target := wake - 1
			if target > bound {
				target = bound // keep the livelock bound cycle-accurate
			}
			s.net.SkipTo(target)
			s.now = target
		}
	}
	var makespan sim.Tick
	for _, c := range s.cores {
		if c.doneAt > makespan {
			makespan = c.doneAt
		}
	}
	return RunResult{
		Makespan: makespan,
		Cycles:   s.now,
		Messages: s.msgID,
	}, nil
}

// done reports whether all cores finished and nothing is in flight.
func (s *System) done() bool {
	for _, c := range s.cores {
		if c.state != coreDone {
			return false
		}
	}
	return s.net.NextWake() == noc.Never && s.eng.Pending() == 0 && len(s.inbox) == 0
}

// coreStates summarizes core states for timeout diagnostics.
func (s *System) coreStates() string {
	counts := map[coreState]int{}
	for _, c := range s.cores {
		counts[c.state]++
	}
	return fmt.Sprintf("running=%d wait-mem=%d wait-lock=%d wait-barrier=%d done=%d",
		counts[coreRunning], counts[coreWaitMem], counts[coreWaitLock], counts[coreWaitBarrier], counts[coreDone])
}

// Now returns the current system cycle.
func (s *System) Now() sim.Tick { return s.now }

// CoreStats aggregates per-core counters for reports.
type CoreStats struct {
	ComputeCycles uint64
	MemOps        uint64
	SyncOps       uint64
	L1Hits        uint64
	L1Misses      uint64
	L1Evictions   uint64
}

// Stats sums core-side counters across the chip.
func (s *System) Stats() CoreStats {
	var t CoreStats
	for _, c := range s.cores {
		t.ComputeCycles += c.ComputeCycles
		t.MemOps += c.MemOps
		t.SyncOps += c.SyncOps
		t.L1Hits += c.l1.Hits
		t.L1Misses += c.l1.Misses
		t.L1Evictions += c.l1.Evictions
	}
	return t
}
