package cpu

import (
	"onocsim/internal/noc"
	"onocsim/internal/trace"
)

// msgType enumerates the coherence and synchronization protocol messages.
type msgType uint8

const (
	// Core → home directory.
	mGetS msgType = iota
	mGetM
	mWB // dirty L1 eviction writeback (data)
	// Home directory → core.
	mData   // data response, grants aux=grantS/grantM
	mInv    // invalidate a shared copy
	mRecall // fetch/invalidate the modified copy, aux=recallS/recallM
	// Core → home directory, transaction responses.
	mInvAck
	mWBData    // recall response carrying data
	mRecallAck // recall response when the line was already written back
	// Synchronization.
	mLockReq
	mLockGrant
	mLockRel
	mBarArrive
	mBarRelease
	// Off-chip memory controller traffic (MemPorts > 0).
	mMemReq
	mMemResp
	numMsgTypes
)

var msgTypeNames = [numMsgTypes]string{
	"GetS", "GetM", "WB", "Data", "Inv", "Recall",
	"InvAck", "WBData", "RecallAck",
	"LockReq", "LockGrant", "LockRel", "BarArrive", "BarRelease",
	"MemReq", "MemResp",
}

func (t msgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return "invalid"
}

// Grant codes carried in protoMsg.aux for mData, and recall intents for
// mRecall.
const (
	grantS = iota
	grantM
)
const (
	recallForS = iota // downgrade owner to S, return data
	recallForM        // invalidate owner, return data
)

// protoMsg is a protocol message. It is a value everywhere except in flight,
// where a *protoMsg from the System's free list rides in the
// noc.Message.Payload of the message the substrate injects.
type protoMsg struct {
	typ  msgType
	line uint64 // cache line number (coherence) — unused for sync
	id   uint64 // lock/barrier id — unused for coherence
	core int    // requesting/acting core
	aux  int    // grant code or recall intent
	// traceID links the in-flight message to its trace event during
	// capture runs; None outside capture.
	traceID trace.EventID
}

// isData reports whether the message carries a full cache line (and thus
// uses the data message size and the response/writeback class).
func (m *protoMsg) isData() bool {
	switch m.typ {
	case mData, mWB, mWBData, mMemResp:
		return true
	}
	return false
}

// class maps protocol roles onto fabric virtual networks so that protocol
// request→response chains cannot deadlock.
func (m *protoMsg) class() noc.Class {
	switch m.typ {
	case mGetS, mGetM, mLockReq, mBarArrive, mMemReq:
		return noc.ClassRequest
	case mData, mInvAck, mWBData, mRecallAck, mLockGrant, mBarRelease, mMemResp:
		return noc.ClassResponse
	case mWB, mLockRel, mInv, mRecall:
		// Evictions and releases initiate no reply the sender waits on;
		// Inv/Recall are sunk by cores that always drain them.
		return noc.ClassWriteback
	default:
		return noc.ClassRequest
	}
}

// traceKind maps protocol roles onto trace event kinds.
func (m *protoMsg) traceKind() trace.Kind {
	switch m.typ {
	case mGetS, mGetM, mLockReq, mBarArrive, mMemReq:
		return trace.KindRequest
	case mData, mMemResp:
		return trace.KindResponse
	case mLockGrant, mBarRelease:
		return trace.KindSync
	case mWB, mWBData:
		return trace.KindData
	default:
		return trace.KindControl
	}
}
