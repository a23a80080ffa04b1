package cpu

import (
	"fmt"

	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// coreState is the blocking state of an in-order core.
type coreState uint8

const (
	coreRunning coreState = iota
	coreWaitMem
	coreWaitLock
	coreWaitBarrier
	coreDone
)

func (s coreState) String() string {
	switch s {
	case coreRunning:
		return "running"
	case coreWaitMem:
		return "wait-mem"
	case coreWaitLock:
		return "wait-lock"
	case coreWaitBarrier:
		return "wait-barrier"
	case coreDone:
		return "done"
	default:
		return "invalid"
	}
}

// core is one in-order, blocking processing element: at most one outstanding
// memory transaction, program-order execution, explicit synchronization.
type core struct {
	id   int
	sys  *System
	prog Program
	pc   int

	state     coreState
	busyUntil sim.Tick
	l1        *l1Cache

	// pendingLine is the line of the in-flight miss.
	pendingLine uint64

	// lastUnblock anchors program-order dependencies: the trace event
	// whose arrival most recently allowed this core to proceed, and when.
	lastUnblockID   trace.EventID
	lastUnblockTime sim.Tick

	// doneAt is the cycle the program finished.
	doneAt sim.Tick

	// Stats.
	ComputeCycles uint64
	MemOps        uint64
	SyncOps       uint64
}

func newCore(id int, sys *System, prog Program) *core {
	s := sys.cfg.System
	return &core{
		id:   id,
		sys:  sys,
		prog: prog,
		l1:   newL1(s.L1Sets, s.L1Ways, s.L1LineBytes),
	}
}

// setState transitions the core's blocking state, keeping the system's
// per-tile-range running-core counts exact. Every state write funnels
// through here; the counts are what let the tick loop and nextWake skip
// whole tile ranges with no runnable core.
func (c *core) setState(s coreState) {
	if (c.state == coreRunning) != (s == coreRunning) {
		r := c.id >> coreRangeShift
		if s == coreRunning {
			c.sys.runningInRange[r]++
		} else {
			c.sys.runningInRange[r]--
		}
	}
	c.state = s
}

// progDep returns the program-order dependency set of the core's next send.
func (c *core) progDep() ([]trace.Dep, sim.Tick) {
	if c.lastUnblockID == trace.None {
		return nil, c.lastUnblockTime
	}
	return []trace.Dep{{On: c.lastUnblockID, Class: trace.DepProgram}}, c.lastUnblockTime
}

// step advances the core by (at most) one blocking action at the current
// cycle. It is called once per system tick.
func (c *core) step() {
	now := c.sys.now
	if c.state != coreRunning || now < c.busyUntil {
		return
	}
	for {
		if c.pc >= len(c.prog) {
			c.setState(coreDone)
			c.doneAt = now
			return
		}
		op := c.prog[c.pc]
		switch op.Kind {
		case OpCompute:
			c.pc++
			c.busyUntil = now + sim.Tick(op.Arg)
			c.ComputeCycles += op.Arg
			return

		case OpLoad, OpStore:
			c.MemOps++
			write := op.Kind == OpStore
			line := c.l1.lineOf(op.Arg)
			if c.l1.Access(line, write) {
				if write {
					// A hit in M keeps M; Access already verified M.
					_ = line
				}
				c.pc++
				c.busyUntil = now + 1 // L1 hit cost
				return
			}
			c.startMiss(line, write)
			return

		case OpLock:
			c.SyncOps++
			deps, depTime := c.progDep()
			c.sys.sendFromCore(c, &protoMsg{typ: mLockReq, id: op.Arg, core: c.id}, deps, depTime)
			c.setState(coreWaitLock)
			return

		case OpUnlock:
			c.SyncOps++
			deps, depTime := c.progDep()
			c.sys.sendFromCore(c, &protoMsg{typ: mLockRel, id: op.Arg, core: c.id}, deps, depTime)
			c.pc++
			c.busyUntil = now + 1
			return

		case OpBarrier:
			c.SyncOps++
			deps, depTime := c.progDep()
			c.sys.sendFromCore(c, &protoMsg{typ: mBarArrive, id: op.Arg, core: c.id}, deps, depTime)
			c.setState(coreWaitBarrier)
			return

		default:
			panic(fmt.Sprintf("cpu: core %d invalid op kind %d", c.id, op.Kind))
		}
	}
}

// startMiss issues the coherence request for a missing line. A store to a
// present-S line and a store/load to an absent line both funnel here; the
// directory distinguishes them only by request type.
func (c *core) startMiss(line uint64, write bool) {
	typ := mGetS
	if write {
		typ = mGetM
	}
	deps, depTime := c.progDep()
	c.sys.sendFromCore(c, &protoMsg{typ: typ, line: line, core: c.id}, deps, depTime)
	c.pendingLine = line
	c.setState(coreWaitMem)
}

// handle processes a message delivered to this core.
func (c *core) handle(am arrivedMsg) {
	m := am.msg
	switch m.typ {
	case mData:
		c.completeMiss(am)

	case mInv:
		c.l1.Invalidate(m.line)
		// Acknowledge to the home (the sender), naming the requesting
		// core only for diagnostics.
		c.sys.sendFromCoreTo(c, c.sys.homeOf(m.line),
			&protoMsg{typ: mInvAck, line: m.line, core: c.id},
			[]trace.Dep{{On: m.traceID, Class: trace.DepCausal}}, am.at)

	case mRecall:
		home := c.sys.homeOf(m.line)
		dep := []trace.Dep{{On: m.traceID, Class: trace.DepCausal}}
		var resp *protoMsg
		if m.aux == recallForS {
			if c.l1.Downgrade(m.line) {
				resp = &protoMsg{typ: mWBData, line: m.line, core: c.id}
			} else {
				resp = &protoMsg{typ: mRecallAck, line: m.line, core: c.id}
			}
		} else {
			was, present := c.l1.Invalidate(m.line)
			if present && was == stateM {
				resp = &protoMsg{typ: mWBData, line: m.line, core: c.id}
			} else {
				resp = &protoMsg{typ: mRecallAck, line: m.line, core: c.id}
			}
		}
		c.sys.sendFromCoreTo(c, home, resp, dep, am.at)

	case mLockGrant:
		if c.state != coreWaitLock {
			panic(fmt.Sprintf("cpu: core %d got LockGrant in state %s", c.id, c.state))
		}
		c.unblock(am)

	case mBarRelease:
		if c.state != coreWaitBarrier {
			panic(fmt.Sprintf("cpu: core %d got BarRelease in state %s", c.id, c.state))
		}
		c.unblock(am)

	default:
		panic(fmt.Sprintf("cpu: core %d received unexpected %s", c.id, m.typ))
	}
}

// completeMiss fills the L1 (possibly evicting) and resumes the program.
func (c *core) completeMiss(am arrivedMsg) {
	m := am.msg
	if c.state != coreWaitMem || m.line != c.pendingLine {
		panic(fmt.Sprintf("cpu: core %d unexpected Data for line %#x in state %s", c.id, m.line, c.state))
	}
	st := stateS
	if m.aux == grantM {
		st = stateM
	}
	// Upgrade in place when the line is already resident (store hit-S).
	if c.l1.State(m.line) != stateI {
		if st == stateM {
			c.l1.Upgrade(m.line)
		}
	} else {
		if victim, dirty, ok := c.l1.victim(m.line); ok && dirty {
			// The eviction is caused by this fill: its dependency is
			// the arriving data message.
			c.sys.sendFromCoreTo(c, c.sys.homeOf(victim),
				&protoMsg{typ: mWB, line: victim, core: c.id},
				[]trace.Dep{{On: m.traceID, Class: trace.DepCausal}}, am.at)
		}
		c.l1.Fill(m.line, st)
	}
	c.unblock(am)
}

// unblock resumes program execution after a blocking response, anchoring
// future program-order dependencies at this arrival.
func (c *core) unblock(am arrivedMsg) {
	c.lastUnblockID = am.msg.traceID
	c.lastUnblockTime = am.at
	c.setState(coreRunning)
	c.pc++
	c.busyUntil = am.at + 1
}
