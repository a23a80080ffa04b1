// Package sim provides the discrete-event simulation kernel shared by every
// model in onocsim: a deterministic event scheduler, the simulated time unit,
// and reproducible pseudo-random number streams.
//
// All simulators in this repository are deterministic by construction: given
// the same configuration and seed, two runs produce bit-identical event
// orders and statistics. Determinism is what makes trace capture and trace
// replay comparable at all, so the kernel enforces a total order on events
// (time, then a monotone sequence number) and never consults wall-clock time
// or global randomness.
package sim

// Tick is a point in simulated time, measured in clock cycles of the global
// system clock. All component clocks in onocsim are expressed as rational
// multiples of this base clock; sub-cycle phenomena (e.g. optical
// serialization at multi-gigabit line rates) are modelled as bits-per-cycle
// capacities rather than fractional ticks.
type Tick int64

// Never is the "no pending work" sentinel shared by the fabric contract and
// the replay feeds: a component reporting Never from its next-event query
// stays silent forever unless something new is handed to it. It sits above
// every reachable simulation time, so min-reductions over mixed sources work.
const Never Tick = 1 << 62
