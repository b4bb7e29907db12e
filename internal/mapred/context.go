package mapred

import "context"

// WithContext returns a shallow copy of the cluster whose job execution is
// bound to ctx: Run aborts between map-task records, before the reduce
// phase, and between reduce groups once ctx is done, and refuses to start
// once it is, so a caller running a chain of jobs stops at the next cycle.
// The copy shares the file system and cost-model configuration with the
// original, so the serving layer can bind one long-lived cluster to many
// per-request contexts concurrently. The copy also shares the cluster's
// free list of task scratch (freeList), so a query starts from the scratch
// the last one handed back.
func (c *Cluster) WithContext(ctx context.Context) *Cluster {
	cp := *c
	cp.ctx = ctx
	return &cp
}

// Context returns the context job execution is bound to (Background when
// unbound).
func (c *Cluster) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// ctxCheckInterval is how many map input records are processed between
// context checks. ctx.Err is an atomic load, but skipping it on the hottest
// loop keeps the overhead unmeasurable while still bounding cancellation
// latency to a few thousand records.
const ctxCheckInterval = 1024

// err returns the binding context's error, or nil when unbound/live.
func (c *Cluster) err() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}
