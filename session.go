package onocsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"onocsim/internal/analytic"
	"onocsim/internal/config"
	"onocsim/internal/core"
	"onocsim/internal/fabric"
	"onocsim/internal/fanout"
	"onocsim/internal/simcache"
	"onocsim/internal/trace"
)

// Session memoizes simulation results. Every simulation in this package is
// deterministic — the same validated config produces bit-identical results —
// so a (config fingerprint, fabric kind, operation) triple fully identifies
// a result and never needs computing twice. A Session carries that cache as
// an explicit handle, and its methods are the one way to run an operation:
// every method is nil-safe, and a nil *Session runs the same operation
// uncached.
//
// Concurrent requests for the same result are single-flighted: the first
// computes, duplicates block and share. No result carries host time, so a
// cached answer is indistinguishable from a computed one. Flights heal: a
// caller whose flight died of somebody else's cancellation while its own
// context is alive asks again (see killedByAnother), so one client's
// disconnect never fails another's request, whatever sits above the session —
// a job, a study phase, an experiment's leaf, a sweep arm.
//
// A Session is safe for concurrent use by multiple goroutines.
type Session struct {
	cache *simcache.Cache

	// mu guards parked, gen and progress.
	mu  sync.Mutex
	gen uint64
	// progress is the observer SetProgress installed, for the events the
	// cache does not resolve: a correction's completed rounds.
	progress Progress

	// parked stashes the resume state of parked self-correction runs under
	// their cache key. A parked result is never cached, so the next request
	// for the same key re-enters the compute closure — which takes the stash
	// and resumes the loop at the parked round boundary instead of replaying
	// the completed rounds. The stash is in-process only and bounded
	// (maxParkStash).
	parked map[simcache.Key]parkEntry
}

// parkEntry is one stashed resume state plus a recency stamp.
type parkEntry struct {
	state *core.ParkState
	gen   uint64
}

// maxParkStash caps the parked-run stash: each entry pins its per-event
// schedule and partial result, so a draining daemon parking dozens of tenants
// must not hold them all forever. Evicted runs resume from scratch — the same
// graceful degradation as before resume existed.
const maxParkStash = 16

// stashPark remembers a parked run's resume state, evicting the
// least-recently-stashed entry when full.
func (s *Session) stashPark(key simcache.Key, st *core.ParkState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	if len(s.parked) >= maxParkStash {
		if _, ok := s.parked[key]; !ok {
			var oldest simcache.Key
			oldestGen := uint64(math.MaxUint64)
			for k, e := range s.parked {
				if e.gen < oldestGen {
					oldest, oldestGen = k, e.gen
				}
			}
			delete(s.parked, oldest)
		}
	}
	s.parked[key] = parkEntry{state: st, gen: s.gen}
}

// takePark removes and returns the stashed resume state for key. Take
// semantics keep the single-use contract: a resume overwrites its
// ParkState's schedule, so whoever takes it owns it.
func (s *Session) takePark(key simcache.Key) *core.ParkState {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.parked[key]
	if !ok {
		return nil
	}
	delete(s.parked, key)
	return e.state
}

// NewSession returns an empty session. cacheDir optionally enables the disk
// layer: captured traces (binary trace codec) and simulation results
// (versioned JSON) are persisted there and reloaded by later invocations;
// pass "" for a purely in-memory session.
func NewSession(cacheDir string) *Session {
	return &Session{
		cache:  simcache.New(cacheDir),
		parked: map[simcache.Key]parkEntry{},
	}
}

// CacheStats reports cache traffic; zero for a nil session.
func (s *Session) CacheStats() simcache.Stats {
	if s == nil {
		return simcache.Stats{}
	}
	return s.cache.Stats()
}

// SetProgress installs an observer notified of every simulation this session
// resolves: computed fresh, deduplicated against an in-flight computation,
// or served from the memory or disk cache; and of every round a
// self-correction it computes completes. The observer runs on the
// requesting goroutine and must be safe for concurrent use; nil removes it.
// No-op on a nil session.
func (s *Session) SetProgress(p Progress) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.progress = p
	s.mu.Unlock()
	if p == nil {
		s.cache.SetNotify(nil)
		return
	}
	s.cache.SetNotify(func(key simcache.Key, outcome simcache.Outcome) {
		ev := ProgressEvent{Sim: key.String(), Op: string(key.Op)}
		switch outcome {
		case simcache.OutcomeComputed:
			ev.Kind = ProgressSimComputed
		case simcache.OutcomeHit:
			ev.Kind = ProgressSimCacheHit
		case simcache.OutcomeWait:
			ev.Kind = ProgressSimWait
		case simcache.OutcomeDiskHit:
			ev.Kind = ProgressSimDiskHit
		default:
			return
		}
		p.Event(ev)
	})
}

// normalizeFor strips the config sections an operation cannot observe
// before fingerprinting, so parameter sweeps dedup everything the swept
// parameter does not touch: an optical-loss sweep reuses one ideal-fabric
// capture across every point, an SCTM-window sweep reuses one ground truth.
// Masked sections are replaced by their defaults (not zeroed) so the
// normalized config still validates. The masking must be exact — keeping an
// unread field only costs cache hits, but masking a read one would alias
// distinct results — so each rule cites what the operations actually read.
func normalizeFor(cfg Config, kind NetworkKind, op simcache.Op) Config {
	def := config.Default()
	n := cfg
	// Every cached operation receives its fabric kind explicitly; the
	// config's own Network field only picks a default elsewhere.
	n.Network = def.Network
	// Parallelism cannot affect any result (a shard count may only say one
	// fabric, and the streaming window only bounds residency) and is already
	// excluded at the Fingerprint level; normalizing it here as well keeps
	// the invariant visible where the other masking rules live.
	n.Parallelism = def.Parallelism
	// SCTM parameters feed only the correction engine and the coupled
	// replay's two dependency toggles.
	switch op {
	case simcache.OpSCTM:
		// The correction reads every SCTM field.
	case simcache.OpCoupled, simcache.OpEstimate:
		sc := cfg.SCTM
		n.SCTM = def.SCTM
		n.SCTM.DisableSyncDeps = sc.DisableSyncDeps
		n.SCTM.DisableCausalDeps = sc.DisableCausalDeps
	default:
		n.SCTM = def.SCTM
	}
	// Fabric sections, faults included, count only for the kinds that read
	// them.
	n = fabric.Mask(n, kind)
	// Replays observe only the target fabric (plus the toggles above): the
	// program generation inputs are baked into the trace, whose identity is
	// keyed separately via Key.Capture. Seed is an exception when the
	// target fabric injects faults — fault schedules derive from (Seed,
	// Faults), so two seeds degrade the fabric differently and must not
	// share a replay result.
	switch op {
	case simcache.OpNaive, simcache.OpCoupled, simcache.OpSCTM, simcache.OpEstimate:
		// The closed-form estimator derates faults by expected value and
		// never samples a fault schedule, so its result is seed-independent
		// even with faults enabled.
		if !n.Faults.Enabled() || op == simcache.OpEstimate {
			n.Seed = def.Seed
		}
		n.System = def.System
		n.Workload = def.Workload
		n.MaxCycles = def.MaxCycles
	}
	return n
}

// SelfCorrectionKey returns the cache identity of a self-correction run of
// cfg's kernel workload on the given fabric kind: the normalized fingerprint
// of the correction itself joined with the identity of the ideal-fabric
// capture that feeds it. Two configs with equal keys share one cached result
// through any Session — the design-space sweep planner uses this to collapse
// grid arms that differ only in parameters the operation cannot observe
// (e.g. electrical arms swept across wavelengths) before running anything.
func SelfCorrectionKey(cfg Config, kind NetworkKind) (string, error) {
	capKey, err := sessionKey(cfg, IdealNet, simcache.OpCapture, "")
	if err != nil {
		return "", err
	}
	runKey, err := sessionKey(cfg, kind, simcache.OpSCTM, "")
	if err != nil {
		return "", err
	}
	return runKey.Fingerprint + "@" + string(kind) + "+" + capKey.Fingerprint, nil
}

// sessionKey builds the cache key for an operation on a validated config: a
// function of the config as the operation observes it (normalizeFor), the
// fabric kind, the operation, and — for the operations that read a trace —
// the identity of that trace, so replays of traces captured on different
// fabrics (or under different configs) never collide. capture is empty for
// the operations that read none.
func sessionKey(cfg Config, kind NetworkKind, op simcache.Op, capture string) (simcache.Key, error) {
	norm := normalizeFor(cfg, kind, op)
	fp, err := norm.Fingerprint()
	if err != nil {
		return simcache.Key{}, err
	}
	return simcache.Key{Fingerprint: fp, Kind: string(kind), Capture: capture, Op: op}, nil
}

// traceKey is the identity of an operation's input trace as a cache key sees
// it (simcache.Key.Capture). A session's own capture is named by the key of
// the capture that produced it, which the trace carries (simcache.DoTrace
// records it before publishing the trace) — a field read, which is what keeps
// a warm request at fingerprint → cache hit with no pass over the trace. Any
// other trace — transformed, hand-built, or a file — is named by the digest of
// its content: two ScaleGapsWhere scales of one capture get distinct entries,
// results for a file persist across invocations, and byte-identical files
// under different paths share them.
func traceKey(src TraceSource) (string, error) {
	if tr, ok := src.(*Trace); ok && tr.CaptureKey != "" {
		return tr.CaptureKey, nil
	}
	d, ok := src.(trace.Digester)
	if !ok {
		return "", fmt.Errorf("onocsim: trace source %T has no content digest to key its results by", src)
	}
	digest, err := d.Digest()
	if err != nil {
		return "", fmt.Errorf("onocsim: digesting a trace to key its results: %w", err)
	}
	return digest, nil
}

// memoKey is where one result lives in a session's cache, resolved before the
// result is known to be needed. The zero cache means "run uncached"; err
// carries a fingerprinting or digest failure to memo, so resolving and
// memoizing compose as memo(s.key(…), run).
type memoKey struct {
	cache *simcache.Cache
	key   simcache.Key
	err   error
}

// key resolves the cache slot of op on (cfg, kind) reading the trace in (nil
// for the operations that read none). A nil session resolves no slot.
func (s *Session) key(cfg Config, kind NetworkKind, op simcache.Op, in TraceSource) memoKey {
	if s == nil {
		return memoKey{}
	}
	var capture string
	if in != nil {
		var err error
		if capture, err = traceKey(in); err != nil {
			return memoKey{err: err}
		}
	}
	key, err := sessionKey(cfg, kind, op, capture)
	return memoKey{cache: s.cache, key: key, err: err}
}

// memo is the one memoization body behind every cached operation: run
// uncached without a slot, otherwise single-flight through the cache. A
// failed flight's value is dropped (never cached, never shared), and a flight
// killedByAnother is asked for again: the retry finds the key vacant and
// computes under ctx, or joins whoever got there first.
func memo[T any](ctx context.Context, k memoKey, run func() (T, error)) (T, error) {
	switch {
	case k.err != nil:
		var zero T
		return zero, k.err
	case k.cache == nil:
		return run()
	}
	for attempt := 0; ; attempt++ {
		v, err := simcache.DoValue(k.cache, k.key, run)
		if attempt == flightRetries || !killedByAnother(ctx, err) {
			return v, err
		}
	}
}

// flightRetries bounds how often one request asks again for a flight that
// keeps dying of other callers' cancellations.
const flightRetries = 2

// killedByAnother reports a flight that ended in a cancellation the caller did
// not cause: the error is a context's or a park, and the caller's own context
// is alive — so the flight ran under the context of another caller this one
// was deduplicated onto, and that caller left. A cancellation of the caller's
// own (or of a fan-out sibling's failure, which ends the shared context) is
// final. The error is tested first: a result costs the context no poll.
func killedByAnother(ctx context.Context, err error) bool {
	return (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrParked)) &&
		ctx.Err() == nil
}

// RunExecutionDrivenContext is the memoized form of the package function.
// The context governs the caller's own computation; a caller deduplicated
// onto another request's in-flight computation shares that computation's
// lifecycle, with one exception: a flight that dies of its computing caller's
// cancellation is asked for again by every waiter whose own context is alive
// (at most flightRetries times), so it fails only the caller that left.
// Errors are never cached. Every Session operation follows this contract.
func (s *Session) RunExecutionDrivenContext(ctx context.Context, cfg Config, kind NetworkKind) (GroundTruth, error) {
	return memo(ctx, s.key(cfg, kind, simcache.OpTruth, nil), func() (GroundTruth, error) {
		return RunExecutionDrivenContext(ctx, cfg, kind)
	})
}

// CaptureTraceContext is the memoized form of the package function. The
// returned trace is shared while held: replay engines treat traces as
// read-only, so one capture serves any number of concurrent replays, and every
// call returns that same trace while any caller still holds it. The session
// keeps only the capture's binary encoding; a call after every caller has
// dropped the trace decodes an equal one from it. With a disk-layer session,
// the capture may be satisfied by a trace persisted by an earlier invocation.
// The duration is the host time of this call — a capture, a load, a wait or a
// map lookup.
func (s *Session) CaptureTraceContext(ctx context.Context, cfg Config, captureOn NetworkKind) (*Trace, time.Duration, error) {
	if s == nil {
		return CaptureTraceContext(ctx, cfg, captureOn)
	}
	start := time.Now()
	key, err := sessionKey(cfg, captureOn, simcache.OpCapture, "")
	if err != nil {
		return nil, 0, err
	}
	capture := func() (*trace.Trace, error) {
		tr, _, err := CaptureTraceContext(ctx, cfg, captureOn)
		return tr, err
	}
	for attempt := 0; ; attempt++ {
		tr, err := s.cache.DoTrace(key, capture)
		if attempt == flightRetries || !killedByAnother(ctx, err) {
			return tr, time.Since(start), err
		}
	}
}

// RunNaiveReplayContext replays the trace at recorded timestamps on a fresh
// fabric of the given kind.
// A session's own capture is keyed by where it came from, any other trace by
// its content (see traceKey): two clients posting byte-identical trace files,
// under any paths, share one computation, and on a hit the file is not even
// decoded. src is a captured *Trace or a stored trace file from OpenTraceFile,
// which every pass streams from disk without materializing it; a file and the
// resident trace it encodes produce byte-identical results. Every Session
// operation that reads a trace follows this contract.
func (s *Session) RunNaiveReplayContext(ctx context.Context, cfg Config, src TraceSource, kind NetworkKind) (ReplayResult, error) {
	return memo(ctx, s.key(cfg, kind, simcache.OpNaive, src), func() (ReplayResult, error) {
		return naiveReplay(ctx, cfg, src, kind)
	})
}

// RunCoupledReplayContext runs the tightly coupled dependency-driven replay,
// memoized like RunNaiveReplayContext.
func (s *Session) RunCoupledReplayContext(ctx context.Context, cfg Config, src TraceSource, kind NetworkKind) (ReplayResult, error) {
	return memo(ctx, s.key(cfg, kind, simcache.OpCoupled, src), func() (ReplayResult, error) {
		return coupledReplay(ctx, cfg, src, kind)
	})
}

// RunSelfCorrectionContext runs the Self-Correction Trace Model on src,
// memoized like RunNaiveReplayContext.
//
// With cfg.SCTM.Seed = "coupled" the loop starts from a coupled replay's
// latencies, its exact fixpoint, and stops in round 0, the coupled pass
// charged to TotalCycles and ReplayedEvents. Every round replays the whole
// trace.
//
// A context that ends mid-loop parks the correction at the next round
// boundary (see ErrParked): the computing caller gets the partial trajectory
// back alongside the error, and the parked result is never cached — a
// partial result must not masquerade as the converged one, so callers
// deduplicated onto the parked flight never see it.
//
// A parked run stashes its resume state, plain data that holds no fabric,
// under the cache key: the next request for the same (config,
// trace content, kind) — a later one, or the retry of a caller that was
// waiting on the parked flight — resumes the loop at the parked round
// boundary, reading its own src, instead of re-running the completed rounds,
// and completes to the same byte-identical result an uninterrupted run
// produces. This is what heals service traffic after a client disconnect or a
// cancelled drain: the retry pays only the remaining rounds.
func (s *Session) RunSelfCorrectionContext(ctx context.Context, cfg Config, src TraceSource, kind NetworkKind) (CorrectionResult, error) {
	k := s.key(cfg, kind, simcache.OpSCTM, src)
	// A parked partial result travels past the cache, which (correctly)
	// drops the value of any failed flight.
	var parked *CorrectionResult
	res, err := memo(ctx, k, func() (CorrectionResult, error) {
		// Take (not peek) inside the closure: only the goroutine that
		// actually computes may consume the single-use resume state —
		// deduplicated waiters never reach here.
		var resume *core.ParkState
		if k.cache != nil {
			resume = s.takePark(k.key)
		}
		res, state, err := selfCorrect(ctx, cfg, src, kind, resume, s.roundEvents(k.key))
		if errors.Is(err, ErrParked) {
			parked = &res
			if k.cache != nil && state != nil {
				s.stashPark(k.key, state)
			}
		}
		return res, err
	})
	if err != nil && parked != nil {
		res = *parked
	}
	return res, err
}

// roundEvents returns a correction loop's round observer that reports each
// completed round to the installed Progress as a ProgressSimRound event
// under key, or nil when none is installed: an unobserved loop pays nothing.
func (s *Session) roundEvents(key simcache.Key) func() {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	p := s.progress
	s.mu.Unlock()
	if p == nil {
		return nil
	}
	ev := ProgressEvent{Kind: ProgressSimRound, Sim: key.String(), Op: string(key.Op)}
	return func() { p.Event(ev) }
}

// Estimate prices replaying src on the given fabric kind with the closed-form
// contention model, in microseconds instead of replay rounds. Cheap enough to
// screen whole design spaces (it queues for no simulation slot, hence no
// context), memoized like RunNaiveReplayContext anyway so repeated sweeps
// over a persisted session cost a map lookup.
func (s *Session) Estimate(cfg Config, src TraceSource, kind NetworkKind) (AnalyticEstimate, error) {
	return memo(context.Background(), s.key(cfg, kind, simcache.OpEstimate, src), func() (AnalyticEstimate, error) {
		return analytic.Estimate(cfg, kind, src)
	})
}

// RunSyntheticLoadContext drives a fresh fabric of the given kind open-loop
// with the config's synthetic workload and reports latency/throughput.
func (s *Session) RunSyntheticLoadContext(ctx context.Context, cfg Config, kind NetworkKind) (SyntheticResult, error) {
	return memo(ctx, s.key(cfg, kind, simcache.OpSynthetic, nil), func() (SyntheticResult, error) {
		return syntheticLoad(ctx, cfg, kind)
	})
}

// RunStudyContext executes the complete methodology comparison: capture the
// trace on the cheap reference fabric, measure execution-driven ground truth
// on the target, and evaluate every replay engine against it.
//
// The phases form a two-stage pipeline on fanout.Each. Trace capture and
// execution-driven ground truth are independent, so they run side by side; the
// three replay engines need only the captured trace, so they start as soon as
// capture finishes — typically while the (much slower) ground-truth run is
// still going. Concurrency is bounded by the process-wide simulation-slot
// scheduler held inside each leaf operation. Every simulation is
// self-contained (own fabric, own RNG streams, own message pools), so the
// results are bit-identical to the sequential schedule; with a non-nil
// session, any phase whose result is already cached (or concurrently being
// computed by another study) is deduplicated instead of re-run.
//
// Every phase queues for its simulation slot under ctx, and the
// self-correction phase parks at a round boundary if ctx ends mid-loop. The
// first phase to fail cancels the context its siblings see and is the error
// returned, named by its phase; partial phase results are discarded (use
// RunSelfCorrectionContext directly to keep a parked trajectory).
func (s *Session) RunStudyContext(ctx context.Context, cfg Config, target NetworkKind) (*Study, error) {
	if err := ValidateNetworkKind(cfg, target); err != nil {
		return nil, err
	}
	st := &Study{Workload: cfg.Workload.Kernel, Target: target}
	phase := func(name string, err error) error {
		if err != nil {
			return fmt.Errorf("onocsim: %s: %w", name, err)
		}
		return nil
	}
	err := fanout.Each(ctx, 2, func(ctx context.Context, i int) (err error) {
		if i == 0 {
			st.Truth, err = s.RunExecutionDrivenContext(ctx, cfg, target)
			return phase("ground truth", err)
		}
		st.Trace, _, err = s.CaptureTraceContext(ctx, cfg, config.NetIdeal)
		if err != nil {
			return phase("capture", err)
		}
		return fanout.Each(ctx, 3, func(ctx context.Context, i int) (err error) {
			switch i {
			case 0:
				st.Naive, err = s.RunNaiveReplayContext(ctx, cfg, st.Trace, target)
				return phase("naive replay", err)
			case 1:
				st.Coupled, err = s.RunCoupledReplayContext(ctx, cfg, st.Trace, target)
				return phase("coupled replay", err)
			default:
				st.SCTM, err = s.RunSelfCorrectionContext(ctx, cfg, st.Trace, target)
				return phase("self-correction", err)
			}
		})
	})
	if err != nil {
		return nil, err
	}
	st.NaiveAcc = Compare(st.Naive, st.Truth)
	st.CoupAcc = Compare(st.Coupled, st.Truth)
	st.SCTMAcc = Compare(st.SCTM.Final, st.Truth)
	return st, nil
}
