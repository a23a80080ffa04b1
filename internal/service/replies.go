package service

import (
	"crypto/sha256"
	"sync"
)

// replyMemoCap bounds the reply memo. An entry is a digest plus one rendered
// reply (about 1 KB of compact JSON), so a full memo is about 1 MB.
const replyMemoCap = 1024

// replyKey identifies a simulate request by the digest of its raw body: two
// requests share a key exactly when their bytes are identical. The digest, not
// the body, is the map key, so a 1 MiB body cannot make the memo hold 1 MiB.
type replyKey [sha256.Size]byte

// replyMemo fronts POST /v1/simulate: the rendered reply of every successful
// request, keyed by the request's bytes, so that a byte-identical repeat is
// answered without decoding, fingerprinting, admission or rendering.
// It holds at most replyMemoCap entries and evicts second-chance FIFO: the
// oldest-inserted entry goes unless it was hit since the eviction hand last
// passed it, in which case it loses the mark and stays. A hot set repeated
// under a stream of never-seen bodies therefore stays memoised; re-running a
// hot job would render a new host wall time.
type replyMemo struct {
	mu      sync.Mutex
	entries map[replyKey]memoEntry
	ring    []replyKey // insertion order; once full, ring[next] is the oldest
	hit     []bool     // parallel to ring: hit since the hand last passed
	next    int
	hits    uint64
	evicted uint64
}

// memoEntry is one stored reply and its slot in the ring.
type memoEntry struct {
	rep  rendered
	slot int
}

// replyStats is the memo's block of the /v1/stats document.
type replyStats struct {
	Hits    uint64 `json:"hits"`
	Entries int    `json:"entries"`
	Evicted uint64 `json:"evicted"`
}

func (m *replyMemo) get(k replyKey) (rendered, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[k]
	if ok {
		m.hits++
		m.hit[e.slot] = true
	}
	return e.rep, ok
}

func (m *replyMemo) put(k replyKey, rep rendered) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		return // concurrent first sightings of one body: same answer, one slot
	}
	if m.entries == nil {
		m.entries = map[replyKey]memoEntry{}
	}
	slot := len(m.ring)
	if slot < replyMemoCap {
		m.ring = append(m.ring, k)
		m.hit = append(m.hit, false)
	} else {
		for m.hit[m.next] {
			m.hit[m.next] = false
			m.next = (m.next + 1) % replyMemoCap
		}
		slot = m.next
		delete(m.entries, m.ring[slot])
		m.ring[slot] = k
		m.next = (m.next + 1) % replyMemoCap
		m.evicted++
	}
	m.entries[k] = memoEntry{rep, slot}
}

func (m *replyMemo) stats() replyStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return replyStats{Hits: m.hits, Entries: len(m.entries), Evicted: m.evicted}
}
