package onocsim

import "time"

// ProgressKind classifies a ProgressEvent.
type ProgressKind uint8

const (
	// ProgressExperimentStart fires when an experiment begins.
	ProgressExperimentStart ProgressKind = iota
	// ProgressExperimentDone fires when an experiment finishes (Err carries
	// the failure, if any; Elapsed the host time it took).
	ProgressExperimentDone
	// ProgressSimComputed fires when a session actually runs a simulation.
	ProgressSimComputed
	// ProgressSimCacheHit fires when a session serves a result from memory.
	ProgressSimCacheHit
	// ProgressSimWait fires when a request blocks on a concurrent in-flight
	// computation of the same result (single-flight dedup at work).
	ProgressSimWait
	// ProgressSimDiskHit fires when a session loads a result persisted by an
	// earlier invocation.
	ProgressSimDiskHit
	// ProgressSweepArm fires when a design-space sweep resolves one grid arm:
	// Sim carries the arm label, Op the phase ("estimate", "pruned",
	// "simulated"). The onocsimd /v1/sweeps endpoint streams these as
	// per-arm SSE progress.
	ProgressSweepArm
	// ProgressSimRound fires when a self-correction the session computes
	// completes a round: Sim and Op name the correction as its computed
	// event will. A cancellation from then on parks the correction with a
	// trajectory to report.
	ProgressSimRound
)

// String names the kind for log lines.
func (k ProgressKind) String() string {
	switch k {
	case ProgressExperimentStart:
		return "start"
	case ProgressExperimentDone:
		return "done"
	case ProgressSimComputed:
		return "computed"
	case ProgressSimCacheHit:
		return "cache-hit"
	case ProgressSimWait:
		return "wait"
	case ProgressSimDiskHit:
		return "disk-hit"
	case ProgressSweepArm:
		return "sweep-arm"
	case ProgressSimRound:
		return "round"
	default:
		return "unknown"
	}
}

// ProgressEvent is one observation of the experiment pipeline: an experiment
// starting or finishing, a session resolving one simulation (computed fresh,
// deduplicated against a concurrent computation, or served from the
// memory/disk cache), or a self-correction completing a round.
type ProgressEvent struct {
	// Kind classifies the event and selects which fields below are set.
	Kind ProgressKind
	// Experiment is the experiment id ("r1") for experiment events.
	Experiment string
	// Title is the experiment's table title, on start events.
	Title string
	// Sim describes the simulation's cache key, on simulation events.
	Sim string
	// Op is the simulation operation ("truth", "capture", …), on simulation
	// events.
	Op string
	// Err is the failure, on done events of failed experiments.
	Err error
	// Elapsed is the experiment's host time, on done events.
	Elapsed time.Duration
}

// Progress observes the experiment pipeline. Implementations must be safe
// for concurrent use: the parallel scheduler and the session deliver events
// from many goroutines. cmd/expreport streams them to stderr; service
// callers can fan them out to clients.
type Progress interface {
	Event(ProgressEvent)
}

// ProgressFunc adapts a function to the Progress interface. The function is
// called from simulation goroutines and must be safe for concurrent use.
type ProgressFunc func(ProgressEvent)

// Event implements Progress.
func (f ProgressFunc) Event(ev ProgressEvent) { f(ev) }
