// Package simcache memoizes simulation results across an experiment session.
//
// The reconstructed evaluation (R1–R20) asks for the same byte-identical
// simulations many times over: the execution-driven optical ground truth of
// a kernel config is needed by the accuracy table, the convergence figure,
// the case study, the power table, the league table, … Because every
// simulation in this repository is deterministic — same validated config,
// same result bits — the (config fingerprint, network kind, operation)
// triple fully identifies a result, and recomputation is pure waste.
//
// Cache is a concurrent in-memory store with single-flight semantics: the
// first requester of a key computes it while concurrent duplicates block on
// the in-flight computation and share its result. A failed computation is
// broadcast to its waiters but never cached, so transient errors do not
// poison the session. An optional disk layer persists captured traces via
// the binary trace codec and every other result as versioned JSON, carrying
// simulation work across process invocations.
//
// A settled capture is held as its binary encoding, the bytes the disk layer
// writes: 14–35 B per event instead of the 120–130 B of a decoded trace. The
// decoded trace is shared through a weak pointer while any caller holds it,
// and decoded again only on the first hit after the collector dropped it.
package simcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"weak"

	"onocsim/internal/trace"
)

// Op names a cached operation. The ops that read a trace are keyed on that
// trace's identity too (see Key.Capture): a self-correction on an
// ideal-captured trace is a different result from one on an electrically
// captured trace, or on a trace file.
type Op string

const (
	// OpTruth is an execution-driven ground-truth run on Key.Kind.
	OpTruth Op = "truth"
	// OpCapture is a trace capture on Key.Kind (the capture fabric).
	OpCapture Op = "capture"
	// OpNaive, OpCoupled and OpSCTM are replays targeting Key.Kind of the
	// trace Key.Capture names.
	OpNaive   Op = "naive"
	OpCoupled Op = "coupled"
	OpSCTM    Op = "sctm"
	// OpSynthetic is an open-loop synthetic traffic run on Key.Kind.
	OpSynthetic Op = "synthetic"
	// OpEstimate is a closed-form analytic latency estimate targeting
	// Key.Kind of the trace Key.Capture names — keyed like the replay ops,
	// priced like none of them.
	OpEstimate Op = "estimate"
)

// Key identifies one simulation result.
type Key struct {
	// Fingerprint is config.Fingerprint() of the validated config.
	Fingerprint string
	// Kind is the fabric the operation ran on (the capture fabric for
	// OpCapture, the target fabric for runs and replays).
	Kind string
	// Capture names the trace an operation read: the capture key of a
	// session's own capture ("fp@kind", see DoTrace), else the trace's
	// content digest ("sha256:<hex>"). Empty for the operations that read
	// none.
	Capture string
	// Op is the operation.
	Op Op
}

func (k Key) String() string {
	// Fingerprints are normally 64 hex characters, but keys also get
	// rendered on error paths where the fingerprint never materialized (a
	// zero Key in a log line must not panic the logger), so the
	// abbreviation truncates defensively.
	fp := k.Fingerprint
	if len(fp) > 12 {
		fp = fp[:12]
	}
	if k.Capture != "" {
		return fmt.Sprintf("%s/%s@%s(cap=%s)", fp, k.Op, k.Kind, k.Capture)
	}
	return fmt.Sprintf("%s/%s@%s", fp, k.Op, k.Kind)
}

// entry is one in-flight or settled computation. done is closed exactly
// once, after val/err are written; waiters block on it without holding the
// cache lock.
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// Stats counts cache traffic; all fields are monotone.
type Stats struct {
	// Misses is the number of computations actually run.
	Misses uint64
	// Hits is the number of requests served from a settled entry.
	Hits uint64
	// Waits is the number of requests that blocked on an in-flight
	// computation (the single-flight dedup at work).
	Waits uint64
	// DiskHits is the number of trace loads served by the disk layer.
	DiskHits uint64
	// DiskErrors is the number of failed disk-layer writes (MkdirAll,
	// temp-file write, or rename). The cache degrades to memory-only on
	// such failures by design — results are never lost — but silently: a
	// read-only or full cache dir would otherwise look healthy while
	// persisting nothing, so the count (plus a once-per-process stderr
	// warning) surfaces the degradation.
	DiskErrors uint64
	// Panics is the number of computations that panicked. Each was turned
	// into an error for its flight and never cached.
	Panics uint64
}

// Outcome names how a cache request was resolved, for observers.
type Outcome string

const (
	// OutcomeComputed: the request ran the computation.
	OutcomeComputed Outcome = "computed"
	// OutcomeHit: the request was served from a settled in-memory entry.
	OutcomeHit Outcome = "hit"
	// OutcomeWait: the request blocked on a concurrent in-flight
	// computation and shared its result.
	OutcomeWait Outcome = "wait"
	// OutcomeDiskHit: the request was served by the disk layer.
	OutcomeDiskHit Outcome = "disk-hit"
)

// Cache is a concurrent memoization table for simulation results.
// The zero value is not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	stats   Stats
	dir     string
	notify  func(Key, Outcome)
}

// SetNotify installs an observer called once per resolved request with how
// it was resolved. The observer runs on the requesting goroutine, outside
// the cache lock, and must be safe for concurrent use. A nil fn removes the
// observer.
func (c *Cache) SetNotify(fn func(Key, Outcome)) {
	c.mu.Lock()
	c.notify = fn
	c.mu.Unlock()
}

// event delivers an outcome to the observer, if one is installed.
func (c *Cache) event(key Key, o Outcome) {
	c.mu.Lock()
	fn := c.notify
	c.mu.Unlock()
	if fn != nil {
		fn(key, o)
	}
}

// New returns an empty cache. dir, when non-empty, enables the disk layer:
// captured traces are persisted as <dir>/<key>.sctm via the binary codec,
// every other result as versioned <dir>/<key>.json, and both are reloaded by
// later invocations (the directory is created on first write).
func New(dir string) *Cache {
	return &Cache{entries: map[Key]*entry{}, dir: dir}
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Do returns the cached value for key, computing it via compute on a miss.
// Concurrent callers with the same key block on the first caller's
// computation and share its result (or its error). Errors are propagated to
// every waiter of the failing flight but are not cached: the next request
// for the key computes afresh.
func (c *Cache) Do(key Key, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		outcome := OutcomeWait
		select {
		case <-e.done:
			c.stats.Hits++
			outcome = OutcomeHit
		default:
			c.stats.Waits++
		}
		c.mu.Unlock()
		c.event(key, outcome)
		<-e.done
		return e.val, e.err
	}
	e := &entry{done: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.mu.Unlock()

	c.fly(key, e, compute)
	return e.val, e.err
}

// fly runs a miss's computation and settles its entry (the hit path never
// comes here, so it pays for no defer). A panicking computation is turned
// into a failed flight: left alone, its entry would stay in the map with
// done open, and every later request for the key — and every waiter already
// deduplicated onto it — would block for the life of the process. Failed
// flights are evicted before waiters are released: a request arriving after
// the eviction retries the computation, one arriving before it shares the
// error.
func (c *Cache) fly(key Key, e *entry, compute func() (any, error)) {
	defer func() {
		r := recover()
		if r != nil {
			e.val, e.err = nil, fmt.Errorf("simcache: computation panicked: %v", r)
		}
		if e.err != nil {
			c.mu.Lock()
			delete(c.entries, key)
			if r != nil {
				c.stats.Panics++
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.err = compute()
}

// tracePath places a persisted trace under the disk layer's directory. The
// fingerprint is hex and the remaining parts are fabric/op names, so the
// name needs no escaping.
func (c *Cache) tracePath(key Key) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s-%s-%s.sctm", key.Fingerprint, key.Kind, key.Op))
}

// valuePath places a persisted non-trace result under the disk layer's
// directory. Keys of the operations that read a trace carry its identity, a
// capture key ("fp@kind") or a content digest ("sha256:<hex>"), both
// filename-safe as is.
func (c *Cache) valuePath(key Key) string {
	name := fmt.Sprintf("%s-%s-%s", key.Fingerprint, key.Kind, key.Op)
	if key.Capture != "" {
		name += "-" + key.Capture
	}
	return filepath.Join(c.dir, name+".json")
}

// writeAtomic persists data at path via a per-process temp file and rename,
// so a concurrent invocation never reads a half-written file. Failures are
// swallowed: a read-only or full cache directory degrades to in-memory
// caching rather than failing the run.
func (c *Cache) writeAtomic(path string, write func(string) error) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		c.diskError(err)
		return
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := write(tmp); err != nil {
		os.Remove(tmp)
		c.diskError(err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		c.diskError(err)
	}
}

// diskWarnOnce gates the stderr warning to once per process: a full or
// read-only cache dir fails every write, and one line says it all.
var diskWarnOnce sync.Once

// diskError records a failed disk-layer write. The cache stays correct —
// the result lives on in memory — but persistence is degraded, which the
// DiskErrors counter and a one-time warning make visible.
func (c *Cache) diskError(err error) {
	c.mu.Lock()
	c.stats.DiskErrors++
	c.mu.Unlock()
	diskWarnOnce.Do(func() {
		fmt.Fprintf(os.Stderr, "simcache: disk cache write failed (%v); continuing memory-only — results from this session will not persist\n", err)
	})
}

// valueFormatVersion guards persisted results against schema drift: decoding
// a result struct from JSON written for an older field layout would silently
// zero-fill, so bump this whenever a cached result type changes shape and
// stale files become plain misses.
// Version 2: CorrectionResult grew the ReplayedEvents/SavedCycles work
// counters; version-1 files would decode them as zero and misreport the
// replay cost, so they are re-computed instead.
// Version 3: analytic.Result grew Bytes, which the sweep's throughput
// objective divides by the makespan; a version-2 estimate would read as zero.
// Version 4: a noc.Stats summary holds integer Σx and Σx² instead of a
// running mean and squared deviation; a version-3 block would decode with
// zero sums.
// Version 5: replay, correction and estimate results are stored bare instead
// of wrapped as {"Res": …, "Wall": …} with the host time of the computation;
// a version-4 file would decode into a zero result.
// Version 6: a noc.Stats summary keeps no Σx² or min, and its latency
// histogram has fixed power-of-two buckets and persists no bounds; the
// persisted block changed shape, so version-5 files are re-computed.
// Version 7: a noc.Stats block is four plain counters, with no latency
// histogram, per-class or queue-delay summaries; the block changed shape
// again, so version-6 files are re-computed.
const valueFormatVersion = 7

// diskValue is the on-disk envelope for non-trace results.
type diskValue struct {
	Version int             `json:"version"`
	Value   json.RawMessage `json:"value"`
}

// DoValue memoizes a typed simulation result, additionally consulting the
// disk layer when one is configured: results are persisted as versioned JSON
// and reloaded across invocations, the same lifecycle DoTrace gives traces.
// T must round-trip through encoding/json (the repository's result structs
// either are plain data or provide codecs). Like DoTrace, persistence is
// best-effort and failures degrade silently to in-memory caching.
func DoValue[T any](c *Cache, key Key, compute func() (T, error)) (T, error) {
	v, err := c.Do(key, func() (any, error) {
		if c.dir != "" {
			if data, err := os.ReadFile(c.valuePath(key)); err == nil {
				var env diskValue
				if json.Unmarshal(data, &env) == nil && env.Version == valueFormatVersion {
					var out T
					if json.Unmarshal(env.Value, &out) == nil {
						c.mu.Lock()
						c.stats.DiskHits++
						c.mu.Unlock()
						c.event(key, OutcomeDiskHit)
						return out, nil
					}
				}
			}
		}
		out, err := compute()
		if err != nil {
			return nil, err
		}
		c.event(key, OutcomeComputed)
		if c.dir != "" {
			if raw, jerr := json.Marshal(out); jerr == nil {
				data, _ := json.Marshal(diskValue{Version: valueFormatVersion, Value: raw})
				c.writeAtomic(c.valuePath(key), func(tmp string) error {
					return os.WriteFile(tmp, data, 0o644)
				})
			}
		}
		return out, nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// packedTrace is a settled capture as the cache keeps it: the binary
// encoding (exact size), the capture key the decoded trace carries, and a weak
// pointer to the decoded trace, live while any caller holds it.
type packedTrace struct {
	data       []byte
	captureKey string
	mu         sync.Mutex
	live       weak.Pointer[trace.Trace]
}

// publish stamps tr with the capture key and arms the weak pointer with it.
func (p *packedTrace) publish(tr *trace.Trace) *trace.Trace {
	tr.CaptureKey = p.captureKey
	p.live = weak.Make(tr)
	return tr
}

// trace returns the decoded trace a caller still holds, else decodes data
// again. The mutex makes concurrent hits after a collection share one decode.
func (p *packedTrace) trace() (*trace.Trace, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tr := p.live.Value(); tr != nil {
		return tr, nil
	}
	tr, err := trace.ReadBinary(bytes.NewReader(p.data))
	if err != nil {
		return nil, err
	}
	return p.publish(tr), nil
}

// DoTrace memoizes a trace capture, additionally consulting the disk layer
// when one is configured: a miss first tries to load the persisted trace,
// and a computed trace is persisted for future invocations. Persistence
// failures degrade silently to in-memory caching: a read-only or full cache
// directory must not fail the run.
//
// The entry keeps the capture's binary encoding, the same bytes as its file
// (see packedTrace). The computing call returns the captured trace itself; a
// hit returns that same trace while anyone holds it, else a fresh decode equal
// to it. Either way the published trace carries its capture identity
// (Trace.CaptureKey, the "fp@kind" a replay key's Capture holds), so replays
// of it can be keyed without any side table.
func (c *Cache) DoTrace(key Key, compute func() (*trace.Trace, error)) (*trace.Trace, error) {
	var own *trace.Trace // set when this call's own flight captured or loaded the trace
	v, err := c.Do(key, func() (any, error) {
		p := &packedTrace{captureKey: key.Fingerprint + "@" + key.Kind}
		if c.dir != "" {
			if data, err := os.ReadFile(c.tracePath(key)); err == nil {
				if tr, err := trace.ReadBinary(bytes.NewReader(data)); err == nil {
					p.data, own = data, p.publish(tr)
					c.mu.Lock()
					c.stats.DiskHits++
					c.mu.Unlock()
					c.event(key, OutcomeDiskHit)
					return p, nil
				}
			}
		}
		tr, err := compute()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, tr); err != nil {
			return nil, err
		}
		p.data, own = bytes.Clone(buf.Bytes()), p.publish(tr)
		c.event(key, OutcomeComputed)
		if c.dir != "" {
			c.writeAtomic(c.tracePath(key), func(tmp string) error {
				return os.WriteFile(tmp, p.data, 0o644)
			})
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	if own != nil {
		return own, nil
	}
	return v.(*packedTrace).trace()
}
