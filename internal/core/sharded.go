package core

import (
	"onocsim/internal/noc"
	"onocsim/internal/trace"
)

// partition is the per-trace half of a K > 1 replay: which replica owns each
// event, and how many each owns — O(n) small integers, like the schedule
// itself. ShardNode depends only on endpoints, so one pass over the source
// settles it for every run of the replayer.
type partition struct {
	k, nodes int
	sn       []int // ShardNode(src, dst) per event
	want     []int // owned events per shard
}

// owner returns the shard that owns event i.
func (p *partition) owner(i int) int { return p.sn[i] * p.k / p.nodes }

// split builds r.part on first use.
func (r *replayer) split(sh noc.ScheduleShardable, k int) error {
	if r.part != nil {
		return nil
	}
	p := &partition{k: k, nodes: sh.Nodes(), sn: make([]int, r.meta.NumEvents), want: make([]int, k)}
	err := EachEvent(r.src, func(i int, e *trace.Event) {
		p.sn[i] = sh.ShardNode(e.Src, e.Dst)
		p.want[p.owner(i)]++
	})
	if err != nil {
		return err
	}
	r.part = p
	return nil
}
