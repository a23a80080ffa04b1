// Package analytic provides closed-form per-fabric latency estimators for
// dependency-annotated traces: zero-load latency plus a contention term
// derived from the trace's per-src/dst offered-load histogram, computed in
// O(events) with no event loop.
//
// The estimate has one role: a screening backend (Session.Estimate) that
// prices a configuration in microseconds, cheap enough to drive large
// design-space sweeps that only simulate the survivors. Seed, its per-event
// latencies, is kept alive only by bench/ (DESIGN §12).
//
// The contention model is an M/D/1-style queueing correction in the spirit
// of Mandal et al., "Analytical Performance Models for NoCs with Multiple
// Priority Traffic Classes": each fabric resource r (an MWSR destination
// home channel, an SWMR source channel, a directed mesh link, an ideal
// injection port) offers utilization ρ_r = demand_r / T, where demand_r is
// the total service time the trace asks of r and T is the schedule horizon,
// and charges each message crossing it a queueing wait
//
//	W_r = ρ_r/(1−ρ_r) · S_r/2
//
// with S_r the mean per-message service time on r and ρ_r clamped below
// saturation. The horizon T starts as the zero-load schedule makespan and is
// refined once against the contention-stretched schedule, tempering the
// utilization overestimate on heavily loaded traces. Laser-droop derating
// (photonics.RateDerateTable, via the fabric's DerateFactor), expected-value
// thermal-drift capacity loss, and expected token-outage unavailability all
// scale the demanded service, so faulted configs estimate accordingly.
//
// Every fabric decision the models price is read from the probe fabric.Build
// returns, never copied: a message's resource and service time on a crossbar
// or the ideal fabric (ShardNode, SerializationCycles, DerateFactor), the
// hybrid's routing rule (RoutesOptical), and the mesh route (enoc's Route).
package analytic

import (
	"fmt"

	"onocsim/internal/config"
	"onocsim/internal/core"
	"onocsim/internal/enoc"
	"onocsim/internal/fabric"
	"onocsim/internal/hybrid"
	"onocsim/internal/noc"
	"onocsim/internal/onoc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// maxUtilization clamps per-resource utilization below saturation: the
// closed form diverges at ρ=1, while the simulated fabric merely queues.
const maxUtilization = 0.95

// Result is a closed-form latency estimate for one (config, fabric, trace)
// triple. It round-trips through encoding/json so sessions can cache it.
type Result struct {
	// Latency is the per-event estimate (zero-load plus contention), in
	// trace event order — the self-correction round-0 seed.
	Latency []sim.Tick `json:"latency"`
	// MeanLatency averages Latency over all events.
	MeanLatency float64 `json:"mean_latency"`
	// Makespan is the completion-time estimate: the dependency schedule
	// under Latency, plus the capture run's trailing computation.
	Makespan sim.Tick `json:"makespan"`
	// ZeroLoadMakespan is the same schedule under pure zero-load latencies —
	// the contention-free lower bound, reported for error banding.
	ZeroLoadMakespan sim.Tick `json:"zero_load_makespan"`
	// Bytes totals the priced events' payloads — with len(Latency), the size
	// of the trace the estimate read.
	Bytes uint64 `json:"bytes"`
}

// Estimate computes the closed-form latency estimate of replaying src on a
// fabric of the given kind. It never ticks a fabric: the cost is one pass
// collecting the demand, two or three O(events) schedule passes, and an
// O(events + pairs·√nodes) histogram pass; what stays resident is a few
// scalars per event, whatever the source.
func Estimate(cfg config.Config, kind config.NetworkKind, src trace.Source) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("analytic: %w", err)
	}
	meta := src.Meta()
	if meta.Nodes != cfg.System.Cores {
		return Result{}, fmt.Errorf("analytic: trace has %d nodes, config %d cores", meta.Nodes, cfg.System.Cores)
	}
	probe, err := fabric.Build(cfg, kind)
	if err != nil {
		return Result{}, err
	}
	d := &demand{nodes: meta.Nodes, msgs: make([]message, meta.NumEvents)}
	lat0 := make([]sim.Tick, meta.NumEvents)
	var bytes uint64
	var maxRef sim.Tick
	if err := core.EachEvent(src, func(i int, e *trace.Event) {
		d.msgs[i] = message{src: e.Src, dst: e.Dst, bytes: e.Bytes}
		lat0[i] = probe.ZeroLoadLatency(e.Src, e.Dst, e.Bytes)
		bytes += uint64(e.Bytes)
		maxRef = max(maxRef, e.RefArrive)
	}); err != nil {
		return Result{}, fmt.Errorf("analytic: %w", err)
	}
	opts := core.ScheduleOptions{
		DisableSyncDeps:   cfg.SCTM.DisableSyncDeps,
		DisableCausalDeps: cfg.SCTM.DisableCausalDeps,
	}
	// schedule returns the horizon of the dependency schedule under lat.
	schedule := func(lat []sim.Tick) (sim.Tick, error) {
		inject, err := core.ScheduleStream(src, lat, opts)
		return horizon(inject, lat), err
	}
	t0, err := schedule(lat0)
	if err != nil {
		return Result{}, fmt.Errorf("analytic: %w", err)
	}

	m, err := buildModel(cfg, d, probe)
	if err != nil {
		return Result{}, err
	}
	lat := m.seed(lat0, float64(t0))
	t, err := schedule(lat)
	// One refinement pass: the zero-load horizon overstates utilization
	// exactly when contention matters, so recompute the waits against the
	// contention-stretched schedule. The sequence is decreasing in the wait
	// term and one step lands close to its fixpoint.
	if err == nil && t > t0 {
		lat = m.seed(lat0, float64(t))
		t, err = schedule(lat)
	}
	if err != nil {
		return Result{}, fmt.Errorf("analytic: %w", err)
	}

	res := Result{Latency: lat, Bytes: bytes}
	var sum float64
	for i := range lat {
		sum += float64(lat[i])
	}
	if len(lat) > 0 {
		res.MeanLatency = sum / float64(len(lat))
	}
	tail := max(meta.RefMakespan-maxRef, 0)
	res.ZeroLoadMakespan = t0 + tail
	res.Makespan = t + tail
	return res, nil
}

// Seed returns the analytic per-event round-0 seed for the self-correction
// loop, or nil when the estimator declines (any error): callers fall back to
// zero-load seeding, which is always available.
func Seed(cfg config.Config, kind config.NetworkKind, src trace.Source) []sim.Tick {
	res, err := Estimate(cfg, kind, src)
	if err != nil {
		return nil
	}
	return res.Latency
}

// horizon returns the schedule completion time max(inject+latency), never
// below 1 so utilization divisions stay defined.
func horizon(inject, lat []sim.Tick) sim.Tick {
	var t sim.Tick = 1
	for i := range inject {
		if a := inject[i] + lat[i]; a > t {
			t = a
		}
	}
	return t
}

// demand is what the contention models read of a trace, collected in one
// pass over its source.
type demand struct {
	nodes int
	msgs  []message // in event order
}

// message is one event as the models see it: endpoints and payload.
type message struct{ src, dst, bytes int }

// model maps a horizon to per-event seeded latencies.
type model interface {
	// seed returns lat0 plus each event's queueing wait at horizon T.
	seed(lat0 []sim.Tick, T float64) []sim.Tick
}

// port is what the port model reads of a crossbar or the ideal
// fabric: the node whose channel or injection port a message waits on, and
// how long its payload holds it.
type port interface {
	ShardNode(src, dst int) int
	SerializationCycles(bytes int) sim.Tick
}

// buildModel dispatches on the probe to its fabric's contention model.
func buildModel(cfg config.Config, d *demand, probe noc.Network) (model, error) {
	switch p := probe.(type) {
	case *enoc.Network:
		return newMeshModel(d, p, nil), nil
	case *hybrid.Network:
		// Each event waits on exactly one sub-fabric, the one the hybrid's
		// own routing rule picks.
		return &hybridModel{
			optical: newPortModel(cfg, d, p.Optical(), p.RoutesOptical),
			mesh:    newMeshModel(d, p.Mesh(), func(src, dst int) bool { return !p.RoutesOptical(src, dst) }),
		}, nil
	case port:
		return newPortModel(cfg, d, p, nil), nil
	default:
		return nil, fmt.Errorf("analytic: no contention model for %T", probe)
	}
}

// waits returns each resource's queueing wait W_r = ρ_r/(1−ρ_r)·S_r/2 at
// horizon T, from the service cycles and messages the trace asks of it.
func waits(svc []float64, msgs []int64, T float64) []float64 {
	wait := make([]float64, len(svc))
	for r := range svc {
		if msgs[r] == 0 {
			continue
		}
		rho := min(svc[r]/T, maxUtilization)
		mean := svc[r] / float64(msgs[r])
		wait[r] = rho / (1 - rho) * mean / 2
	}
	return wait
}

// charge returns lat0 plus, for each event i with at[i] ≥ 0, the wait at
// index at[i], rounded to the nearest cycle.
func charge(lat0 []sim.Tick, at []int32, wait []float64) []sim.Tick {
	out := make([]sim.Tick, len(lat0))
	for i := range lat0 {
		out[i] = lat0[i]
		if r := at[i]; r >= 0 {
			out[i] += sim.Tick(wait[r] + 0.5)
		}
	}
	return out
}

// portModel is the crossbar and ideal contention model: each event demands
// service of exactly one resource (a home channel, a sender channel, an
// injection port), and waits W_r = ρ/(1−ρ)·S_r/2 on it.
type portModel struct {
	svc   []float64 // total service cycles demanded per resource
	msgs  []int64   // messages per resource
	evRes []int32   // resource of each event, −1 for none (self-traffic)
}

func (m *portModel) seed(lat0 []sim.Tick, T float64) []sim.Tick {
	return charge(lat0, m.evRes, waits(m.svc, m.msgs, T))
}

// newPortModel builds the port model: each message waits on the
// probe's ShardNode for its SerializationCycles. On a crossbar that service
// stretches by the lightpath's droop derating and the expected drift loss,
// and on MWSR, the one crossbar with a token, by expected token outages.
// include, when non-nil, restricts the model to the events the hybrid
// fabric routes optically.
func newPortModel(cfg config.Config, d *demand, p port, include func(src, dst int) bool) *portModel {
	m := &portModel{
		svc:   make([]float64, d.nodes),
		msgs:  make([]int64, d.nodes),
		evRes: make([]int32, len(d.msgs)),
	}
	scale, derate := 1.0, func(src, dst int) sim.Tick { return 1 }
	if xb, ok := p.(onoc.Crossbar); ok {
		scale, derate = driftScale(cfg.Optical, cfg.Faults), xb.DerateFactor
		if _, mwsr := xb.(*onoc.Network); mwsr {
			scale *= tokenScale(cfg.Faults)
		}
	}
	for i, e := range d.msgs {
		m.evRes[i] = -1
		if e.src == e.dst || (include != nil && !include(e.src, e.dst)) {
			continue
		}
		r := p.ShardNode(e.src, e.dst)
		m.svc[r] += float64(p.SerializationCycles(e.bytes)*derate(e.src, e.dst)) * scale
		m.msgs[r]++
		m.evRes[i] = int32(r)
	}
	return m
}

// driftScale is the expected serialization stretch from thermal drift: a
// drift window detunes part of a channel's WDM degree for
// ThermalDuration out of every ThermalMTBF+ThermalDuration cycles, so
// expected capacity shrinks by the duty-weighted wavelength loss.
func driftScale(o config.Optical, f config.Faults) float64 {
	if f.ThermalMTBF <= 0 {
		return 1
	}
	duty := float64(f.ThermalDuration) / float64(f.ThermalMTBF+f.ThermalDuration)
	avail := o.WavelengthsPerChannel - int(float64(o.WavelengthsPerChannel)*f.ThermalDetune)
	if avail < 1 {
		avail = 1
	}
	return (1 - duty) + duty*float64(o.WavelengthsPerChannel)/float64(avail)
}

// tokenScale inflates channel demand for the expected fraction of time an
// MWSR home channel sits stalled in a token-loss outage.
func tokenScale(f config.Faults) float64 {
	if f.TokenMTBF <= 0 {
		return 1
	}
	out := float64(f.TokenTimeout) / float64(f.TokenMTBF+f.TokenTimeout)
	if out > 0.9 {
		out = 0.9
	}
	return 1 / (1 - out)
}

// meshModel charges each message's flits to every directed link on the
// mesh's own dimension-ordered route (enoc's Route) and sums the per-link
// queueing waits along it. Wormhole pipelining, virtual channels, and
// adaptive (westfirst) detours are abstracted away: the estimate prices link
// occupancy, the dominant first-order effect. The per-pair route walk runs
// once per distinct (src,dst) pair with traffic — O(pairs·√nodes),
// independent of event count.
type meshModel struct {
	mesh *enoc.Network
	// Per directed link: demanded flit cycles and messages.
	linkSvc  []float64
	linkMsgs []int64
	load     *noc.LoadMatrix
	// flitsPair aggregates exact per-event flit counts per pair (ceil is
	// not linear in bytes, so pair totals cannot be derived from the byte
	// histogram alone).
	flitsPair []float64
	evPair    []int32 // src*nodes+dst per event, −1 for none
}

// newMeshModel builds the link-utilization model. include, when non-nil,
// restricts it to the events the hybrid fabric routes electrically.
func newMeshModel(d *demand, mesh *enoc.Network, include func(src, dst int) bool) *meshModel {
	nodes := d.nodes
	m := &meshModel{
		mesh:      mesh,
		linkSvc:   make([]float64, mesh.Links()),
		linkMsgs:  make([]int64, mesh.Links()),
		load:      noc.NewLoadMatrix(nodes),
		flitsPair: make([]float64, nodes*nodes),
		evPair:    make([]int32, len(d.msgs)),
	}
	for i, e := range d.msgs {
		m.evPair[i] = -1
		if e.src == e.dst || (include != nil && !include(e.src, e.dst)) {
			continue
		}
		m.load.Add(e.src, e.dst, e.bytes)
		m.flitsPair[e.src*nodes+e.dst] += float64(enoc.FlitsFor(e.bytes))
		m.evPair[i] = int32(e.src*nodes + e.dst)
	}
	m.load.ForEachPair(func(src, dst int, pl noc.PairLoad) {
		flits := m.flitsPair[src*nodes+dst]
		m.mesh.Route(src, dst, func(link int) {
			m.linkSvc[link] += flits
			m.linkMsgs[link] += pl.Messages
		})
	})
	return m
}

func (m *meshModel) seed(lat0 []sim.Tick, T float64) []sim.Tick {
	linkWait := waits(m.linkSvc, m.linkMsgs, T)
	nodes := m.load.Nodes()
	pairWait := make([]float64, nodes*nodes)
	m.load.ForEachPair(func(src, dst int, _ noc.PairLoad) {
		var sum float64
		m.mesh.Route(src, dst, func(link int) { sum += linkWait[link] })
		pairWait[src*nodes+dst] = sum
	})
	return charge(lat0, m.evPair, pairWait)
}

// hybridModel splits the trace by the hybrid routing rule and runs the
// crossbar model on the optically routed events and the mesh model on the
// rest; each event waits on exactly one sub-fabric.
type hybridModel struct {
	optical model
	mesh    model
}

func (m *hybridModel) seed(lat0 []sim.Tick, T float64) []sim.Tick {
	// Each event is charged by exactly one sub-model; the other leaves its
	// entry at lat0, so combining is a per-event max.
	a := m.optical.seed(lat0, T)
	b := m.mesh.seed(lat0, T)
	for i := range a {
		if b[i] > a[i] {
			a[i] = b[i]
		}
	}
	return a
}
