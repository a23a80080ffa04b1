package cpu

import (
	"fmt"
	"math/bits"

	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// bitset is a sharer set over up to a few hundred cores.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			fn(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// dirState is the directory view of a line.
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirModified
)

// arrivedMsg couples a delivered protocol message with its destination node
// and arrival time, so handlers can cite it as a dependency of their
// responses.
type arrivedMsg struct {
	msg *protoMsg
	dst int
	at  sim.Tick
}

// dirEntry is the directory + transaction state of one line at its home.
type dirEntry struct {
	state   dirState
	sharers bitset
	owner   int

	// busy is set while a multi-message transaction (invalidation round
	// or recall) is in flight; conflicting requests queue in waitq.
	busy  bool
	waitq []arrivedMsg

	// Transaction scratch: the request being serviced, outstanding ack
	// count, and the dependency set accumulated for the final response.
	pendingReq  arrivedMsg
	pendingAcks int
	deps        []trace.Dep
	depTime     sim.Tick
	// recallFrom is the core a Recall was sent to (-1 when the current
	// transaction is not a recall); it filters stale recall responses.
	recallFrom int
	// waitingMem marks a transaction stalled on an off-chip fetch from a
	// memory controller (MemPorts > 0); pendingReq holds the request to
	// grant when the MemResp arrives.
	waitingMem bool
	// ownerKeptCopy records that the recalled owner downgraded to S and
	// must stay in the sharer set.
	ownerKeptCopy bool
}

// l2Bank models the shared-L2 data array of one tile as a capacity-bounded
// presence set with LRU: a miss costs the off-chip memory latency, and
// evictions drop data only (directory state is untouched — the directory is
// modelled as unbounded, a standard decoupling that avoids recall storms
// from directory evictions while preserving off-chip access timing).
type l2Bank struct {
	sets int
	ways int
	tags [][]l2Line
	tick uint64

	Hits, Misses uint64
}

type l2Line struct {
	tag   uint64
	valid bool
	lru   uint64
}

func newL2Bank(sets, ways int) *l2Bank {
	b := &l2Bank{sets: sets, ways: ways}
	// One backing array for all sets: bank construction is on the capture
	// hot path (every study run builds fresh systems), and per-set slices
	// were a dominant allocation source.
	b.tags = make([][]l2Line, sets)
	backing := make([]l2Line, sets*ways)
	for i := range b.tags {
		b.tags[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return b
}

// touch returns whether the line's data was present, installing it (with
// LRU eviction) if not. The caller charges the memory latency on a miss.
func (b *l2Bank) touch(line uint64) bool {
	set := b.tags[int(line)%b.sets]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			b.tick++
			set[i].lru = b.tick
			b.Hits++
			return true
		}
	}
	b.Misses++
	vi, vlru := 0, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lru < vlru {
			vi, vlru = i, set[i].lru
		}
	}
	b.tick++
	set[vi] = l2Line{tag: line, valid: true, lru: b.tick}
	return false
}

// lockState is one lock at its home bank.
type lockState struct {
	held   bool
	holder int
	waitq  []arrivedMsg
	// relDep is the arrival of the release that freed the lock, cited as
	// the sync dependency of the next grant.
	relDep  trace.Dep
	relTime sim.Tick
	hasRel  bool
}

// barrierState is one barrier generation at its home bank.
type barrierState struct {
	arrived int
	deps    []trace.Dep
	depTime sim.Tick
}

// bank is the per-tile home node: L2 data, directory, lock and barrier
// managers. Banks are passive: they react to delivered messages and emit
// responses through the system's delayed-send queue.
type bank struct {
	id  int
	sys *System

	l2       *l2Bank
	dir      map[uint64]*dirEntry
	locks    map[uint64]*lockState
	barriers map[uint64]*barrierState

	// Stats.
	Recalls   uint64
	InvRounds uint64
}

func newBank(id int, sys *System) *bank {
	return &bank{
		id:       id,
		sys:      sys,
		l2:       newL2Bank(sys.cfg.System.L2SetsPerBank, sys.cfg.System.L2Ways),
		dir:      make(map[uint64]*dirEntry),
		locks:    make(map[uint64]*lockState),
		barriers: make(map[uint64]*barrierState),
	}
}

func (b *bank) entry(line uint64) *dirEntry {
	e, ok := b.dir[line]
	if !ok {
		e = &dirEntry{sharers: newBitset(b.sys.nodes), owner: -1, recallFrom: -1}
		b.dir[line] = e
	}
	return e
}

// serviceDelay returns the bank occupancy for a line access, charging the
// off-chip latency when the L2 data is absent.
func (b *bank) serviceDelay(line uint64) sim.Tick {
	d := L2HitCycles
	if !b.l2.touch(line) {
		d += MemCycles
	}
	return d
}

// handle dispatches one delivered message.
func (b *bank) handle(am arrivedMsg) {
	switch am.msg.typ {
	case mGetS, mGetM:
		b.handleRequest(am)
	case mMemReq:
		b.handleMemReq(am)
	case mMemResp:
		b.handleMemResp(am)
	case mWB:
		b.handleWB(am)
	case mInvAck:
		b.handleInvAck(am)
	case mWBData, mRecallAck:
		b.handleRecallResp(am)
	case mLockReq:
		b.handleLockReq(am)
	case mLockRel:
		b.handleLockRel(am)
	case mBarArrive:
		b.handleBarArrive(am)
	default:
		panic(fmt.Sprintf("cpu: bank %d received unexpected %s", b.id, am.msg.typ))
	}
}

// handleRequest services GetS/GetM, queueing behind a busy transaction.
func (b *bank) handleRequest(am arrivedMsg) {
	e := b.entry(am.msg.line)
	if e.busy {
		e.waitq = append(e.waitq, am)
		return
	}
	b.startRequest(e, am)
}

func (b *bank) startRequest(e *dirEntry, am arrivedMsg) {
	m := am.msg
	line, c := m.line, m.core
	reqDep := trace.Dep{On: m.traceID, Class: trace.DepCausal}
	switch e.state {
	case dirUncached:
		if b.startMemFetch(e, am) {
			return
		}
		delay := b.serviceDelay(line)
		grant := grantS
		if m.typ == mGetM {
			grant = grantM
			e.state = dirModified
			e.owner = c
		} else {
			e.state = dirShared
			e.sharers.set(c)
		}
		b.sendData(line, c, grant, delay, []trace.Dep{reqDep}, am.at)

	case dirShared:
		if m.typ == mGetS {
			if b.startMemFetch(e, am) {
				return
			}
			delay := b.serviceDelay(line)
			e.sharers.set(c)
			b.sendData(line, c, grantS, delay, []trace.Dep{reqDep}, am.at)
			return
		}
		// GetM against sharers: invalidate everyone but the requestor.
		others := 0
		e.sharers.forEach(func(i int) {
			if i != c {
				others++
			}
		})
		if others == 0 {
			if b.startMemFetch(e, am) {
				return
			}
			delay := b.serviceDelay(line)
			e.sharers = newBitset(b.sys.nodes)
			e.state = dirModified
			e.owner = c
			b.sendData(line, c, grantM, delay, []trace.Dep{reqDep}, am.at)
			return
		}
		e.busy = true
		e.pendingReq = am
		e.pendingAcks = others
		e.deps = []trace.Dep{reqDep}
		e.depTime = am.at
		e.recallFrom = -1
		b.InvRounds++
		svc := L2HitCycles
		e.sharers.forEach(func(i int) {
			if i == c {
				return
			}
			b.sys.send(b.id, i, &protoMsg{typ: mInv, line: line, core: c},
				svc, []trace.Dep{reqDep}, am.at)
		})

	case dirModified:
		if e.owner == c {
			// The owner re-requesting means its WB is in flight and
			// raced ahead of us; serialize behind it.
			e.waitq = append(e.waitq, am)
			e.busy = true
			e.pendingReq = arrivedMsg{}
			e.recallFrom = -1
			return
		}
		e.busy = true
		e.pendingReq = am
		e.pendingAcks = 1
		e.deps = []trace.Dep{reqDep}
		e.depTime = am.at
		e.recallFrom = e.owner
		e.ownerKeptCopy = false
		b.Recalls++
		intent := recallForS
		if m.typ == mGetM {
			intent = recallForM
		}
		svc := L2HitCycles
		b.sys.send(b.id, e.owner, &protoMsg{typ: mRecall, line: line, core: c, aux: intent},
			svc, []trace.Dep{reqDep}, am.at)
	}
}

// startMemFetch begins an off-chip fetch when memory controllers are
// modelled and the L2 data is absent. It reports whether the grant is now
// deferred to the MemResp. The L2 tag is installed by the touch probe; only
// the timing is carried by the controller round trip.
func (b *bank) startMemFetch(e *dirEntry, am arrivedMsg) bool {
	if b.sys.cfg.System.MemPorts <= 0 {
		return false
	}
	if b.l2.touch(am.msg.line) {
		return false // data resident: grant immediately
	}
	e.busy = true
	e.waitingMem = true
	e.pendingReq = am
	e.pendingAcks = 0
	e.recallFrom = -1
	mc := b.sys.memControllerOf(am.msg.line)
	b.sys.send(b.id, mc,
		&protoMsg{typ: mMemReq, line: am.msg.line, core: b.id},
		L2HitCycles,
		[]trace.Dep{{On: am.msg.traceID, Class: trace.DepCausal}}, am.at)
	return true
}

// handleMemReq services an off-chip access at a memory controller tile:
// the response carries the line after the DRAM latency.
func (b *bank) handleMemReq(am arrivedMsg) {
	b.sys.send(b.id, am.msg.core,
		&protoMsg{typ: mMemResp, line: am.msg.line, core: b.id},
		MemCycles,
		[]trace.Dep{{On: am.msg.traceID, Class: trace.DepCausal}}, am.at)
}

// handleMemResp completes the deferred grant at the home bank.
func (b *bank) handleMemResp(am arrivedMsg) {
	e := b.entry(am.msg.line)
	if !e.busy || !e.waitingMem || e.pendingReq.msg == nil {
		panic(fmt.Sprintf("cpu: bank %d stray MemResp for line %#x", b.id, am.msg.line))
	}
	req := e.pendingReq
	line, c := req.msg.line, req.msg.core
	deps := []trace.Dep{{On: am.msg.traceID, Class: trace.DepCausal}}
	delay := L2HitCycles
	if req.msg.typ == mGetM {
		e.sharers = newBitset(b.sys.nodes)
		e.state = dirModified
		e.owner = c
		b.sendData(line, c, grantM, delay, deps, am.at)
	} else {
		e.state = dirShared
		e.sharers.set(c)
		b.sendData(line, c, grantS, delay, deps, am.at)
	}
	e.busy = false
	e.waitingMem = false
	e.pendingReq = arrivedMsg{}
	b.drainWaitq(e)
}

// handleWB processes a spontaneous dirty eviction from the owner.
func (b *bank) handleWB(am arrivedMsg) {
	e := b.entry(am.msg.line)
	c := am.msg.core
	b.l2.touch(am.msg.line) // writeback installs the data
	if e.busy && e.pendingAcks > 0 && e.state == dirModified && e.owner == c {
		// The WB crossed a Recall we sent to the same core: it serves as
		// the recall response.
		b.absorbRecallData(e, am)
		return
	}
	if e.state == dirModified && e.owner == c {
		e.state = dirUncached
		e.owner = -1
		if e.busy && e.pendingReq.msg == nil {
			// An owner re-request was queued waiting for this WB.
			e.busy = false
			b.drainWaitq(e)
		}
	}
	// A WB from a non-owner is a stale message from an already-recalled
	// line; the data install above is all it contributes.
}

// handleInvAck counts one invalidation acknowledgement.
func (b *bank) handleInvAck(am arrivedMsg) {
	e := b.entry(am.msg.line)
	if !e.busy || e.pendingAcks <= 0 || e.pendingReq.msg == nil {
		panic(fmt.Sprintf("cpu: bank %d stray InvAck for line %#x", b.id, am.msg.line))
	}
	e.sharers.clear(am.msg.core)
	e.deps = append(e.deps, trace.Dep{On: am.msg.traceID, Class: trace.DepCausal})
	if am.at > e.depTime {
		e.depTime = am.at
	}
	e.pendingAcks--
	if e.pendingAcks == 0 {
		b.finishRequest(e)
	}
}

// handleRecallResp completes a recall with or without data.
func (b *bank) handleRecallResp(am arrivedMsg) {
	e := b.entry(am.msg.line)
	if !e.busy || e.pendingAcks <= 0 || e.pendingReq.msg == nil || e.recallFrom != am.msg.core {
		// A recall response may trail a crossing WB that already
		// completed the transaction; it is then a harmless straggler.
		return
	}
	if am.msg.typ == mWBData {
		b.l2.touch(am.msg.line)
		// A WBData reply means the owner still had the line and, for a
		// GetS-triggered recall, downgraded to S rather than dropping it.
		if e.pendingReq.msg.typ == mGetS {
			e.ownerKeptCopy = true
		}
	}
	b.absorbRecallData(e, am)
}

func (b *bank) absorbRecallData(e *dirEntry, am arrivedMsg) {
	e.deps = append(e.deps, trace.Dep{On: am.msg.traceID, Class: trace.DepCausal})
	if am.at > e.depTime {
		e.depTime = am.at
	}
	e.pendingAcks--
	if e.pendingAcks == 0 {
		b.finishRequest(e)
	}
}

// finishRequest sends the data response of the pending transaction and
// resolves the new directory state, then drains queued requests.
func (b *bank) finishRequest(e *dirEntry) {
	am := e.pendingReq
	m := am.msg
	line, c := m.line, m.core
	delay := L2HitCycles
	if m.typ == mGetM {
		e.sharers = newBitset(b.sys.nodes)
		e.state = dirModified
		e.owner = c
		b.sendData(line, c, grantM, delay, e.deps, e.depTime)
	} else {
		prevOwner := e.owner
		e.state = dirShared
		if prevOwner >= 0 && e.ownerKeptCopy {
			e.sharers.set(prevOwner)
		}
		e.sharers.set(c)
		e.owner = -1
		b.sendData(line, c, grantS, delay, e.deps, e.depTime)
	}
	e.busy = false
	e.deps = nil
	e.pendingReq = arrivedMsg{}
	e.recallFrom = -1
	e.ownerKeptCopy = false
	b.drainWaitq(e)
}

// drainWaitq restarts the oldest queued request, if any.
func (b *bank) drainWaitq(e *dirEntry) {
	for !e.busy && len(e.waitq) > 0 {
		next := e.waitq[0]
		e.waitq = e.waitq[1:]
		b.startRequest(e, next)
	}
}

// sendData emits a data response.
func (b *bank) sendData(line uint64, c, grant int, delay sim.Tick, deps []trace.Dep, depTime sim.Tick) {
	b.sys.send(b.id, c, &protoMsg{typ: mData, line: line, core: c, aux: grant}, delay, deps, depTime)
}

// --- Synchronization ---

func (b *bank) lock(id uint64) *lockState {
	l, ok := b.locks[id]
	if !ok {
		l = &lockState{holder: -1}
		b.locks[id] = l
	}
	return l
}

func (b *bank) handleLockReq(am arrivedMsg) {
	l := b.lock(am.msg.id)
	if l.held {
		l.waitq = append(l.waitq, am)
		return
	}
	l.held = true
	l.holder = am.msg.core
	deps := []trace.Dep{{On: am.msg.traceID, Class: trace.DepCausal}}
	depTime := am.at
	if l.hasRel {
		deps = append(deps, l.relDep)
		if l.relTime > depTime {
			depTime = l.relTime
		}
	}
	b.sys.send(b.id, am.msg.core,
		&protoMsg{typ: mLockGrant, id: am.msg.id, core: am.msg.core},
		L2HitCycles, deps, depTime)
}

func (b *bank) handleLockRel(am arrivedMsg) {
	l := b.lock(am.msg.id)
	if !l.held || l.holder != am.msg.core {
		panic(fmt.Sprintf("cpu: bank %d lock %d released by non-holder %d", b.id, am.msg.id, am.msg.core))
	}
	l.held = false
	l.holder = -1
	l.relDep = trace.Dep{On: am.msg.traceID, Class: trace.DepSync}
	l.relTime = am.at
	l.hasRel = true
	if len(l.waitq) > 0 {
		next := l.waitq[0]
		l.waitq = l.waitq[1:]
		l.held = true
		l.holder = next.msg.core
		deps := []trace.Dep{
			{On: next.msg.traceID, Class: trace.DepCausal},
			l.relDep,
		}
		depTime := next.at
		if l.relTime > depTime {
			depTime = l.relTime
		}
		b.sys.send(b.id, next.msg.core,
			&protoMsg{typ: mLockGrant, id: next.msg.id, core: next.msg.core},
			L2HitCycles, deps, depTime)
	}
}

func (b *bank) handleBarArrive(am arrivedMsg) {
	bs, ok := b.barriers[am.msg.id]
	if !ok {
		bs = &barrierState{}
		b.barriers[am.msg.id] = bs
	}
	bs.arrived++
	bs.deps = append(bs.deps, trace.Dep{On: am.msg.traceID, Class: trace.DepSync})
	if am.at > bs.depTime {
		bs.depTime = am.at
	}
	if bs.arrived == b.sys.nodes {
		svc := L2HitCycles
		for c := 0; c < b.sys.nodes; c++ {
			deps := make([]trace.Dep, len(bs.deps))
			copy(deps, bs.deps)
			b.sys.send(b.id, c,
				&protoMsg{typ: mBarRelease, id: am.msg.id, core: c},
				svc, deps, bs.depTime)
		}
		delete(b.barriers, am.msg.id)
	}
}
