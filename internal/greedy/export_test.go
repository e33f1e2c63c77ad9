package greedy

import (
	"vexus/internal/feedback"
	"vexus/internal/groups"
)

// ConstructColumns runs one step's pool and construction, with no
// deadline, and returns the pool size and the Jaccard columns the lazy
// gain cache filled: the sum of every candidate's caught-up picks.
func (o *Optimizer) ConstructColumns(focal *groups.Group, fb *feedback.Vector, cfg Config) (candidates, columns int) {
	cands := o.pool(focal, fb, cfg)
	if len(cands) == 0 {
		return 0, 0
	}
	gc := newGainCache(newSelState(o.space, focal, cands, cfg), min(cfg.K, len(cands)))
	o.construct(gc, o.now(), true)
	for _, f := range gc.filled {
		columns += int(f)
	}
	return len(cands), columns
}
