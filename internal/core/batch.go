package core

import (
	"context"
	"slices"
)

// BatchItem is one query of a batched recommendation call. Ctx, when
// non-nil, carries the query's own deadline/cancellation; nil means the
// batch-level context governs it alone.
type BatchItem struct {
	Ctx     context.Context
	Query   Query
	TopK    int
	Exclude []string
}

// BatchOut is one query's answer from a batched call: exactly what
// RecommendCtx would have returned for the same query against the same view.
type BatchOut struct {
	Results []Result
	Info    RecommendInfo
	Err     error
}

// batchSlot is one live batch item queued for the pipeline: its index in
// the batch and its cancellation scope.
type batchSlot struct {
	item int
	poll poll
}

// RecommendBatch answers every item against this view, one after another
// through the same pipeline RecommendCtx runs. Each item's answer is
// bit-identical to what RecommendCtx would return for the same query,
// deadline and view. Batching saves the per-call scratch hand-off and the
// output allocations (RecommendBatchInto); the large saving of a coalesced
// batch is the (clip, k) dedup one layer up.
//
// bctx bounds the whole batch (a fan-out budget, the server's base context);
// each item's own Ctx additionally bounds just that item. A cancelled item
// settles with its own ctx error and drops out without disturbing its
// cohort. Items run earliest-effective-deadline first, and each item's
// degrade decision (Options.DegradeMargin) is made against its own effective
// deadline exactly as in serial serving. Items refine on the calling
// goroutine, so a warm batch allocates nothing (worker goroutines would),
// and a sharded fan-out, which already runs one batch per shard at once,
// does not oversubscribe the cores.
func (v *View) RecommendBatch(bctx context.Context, items []BatchItem) []BatchOut {
	outs := make([]BatchOut, len(items))
	v.RecommendBatchInto(bctx, items, outs)
	return outs
}

// RecommendBatchInto is RecommendBatch writing into caller-owned output
// slots, reusing each out's Results capacity — the steady state of a warm
// serving loop allocates nothing. len(outs) must equal len(items).
func (v *View) RecommendBatchInto(bctx context.Context, items []BatchItem, outs []BatchOut) {
	if len(items) != len(outs) {
		panic("core: RecommendBatchInto items/outs length mismatch")
	}
	if bctx == nil {
		bctx = context.Background()
	}
	qs := v.getScratch()
	defer v.putScratch(qs)

	// Per-item setup: answer the empty and already-cancelled items, scope the
	// rest to their effective deadlines.
	slots := qs.batch[:0]
	for b := range items {
		it := &items[b]
		out := &outs[b]
		out.Results, out.Info, out.Err = out.Results[:0], RecommendInfo{}, nil
		if it.TopK <= 0 {
			continue // empty answer, matching RecommendCtx's nil result
		}
		ctx := it.Ctx
		if ctx == nil {
			ctx = bctx
		}
		if err := ctx.Err(); err != nil {
			out.Err = err
			continue
		}
		if err := bctx.Err(); err != nil {
			out.Err = err
			continue
		}
		slots = append(slots, batchSlot{item: b, poll: newPoll(ctx, bctx)})
	}

	// Earliest effective deadline first: the deadline-nearest query sets
	// where in the batch degradation starts to bite, and every later query
	// re-checks its own margin when its turn comes. Deadlines sort before
	// no-deadline; the sort is stable, so the order is deterministic.
	slices.SortStableFunc(slots, func(a, b batchSlot) int {
		switch {
		case a.poll.hasDeadline && b.poll.hasDeadline:
			return a.poll.deadline.Compare(b.poll.deadline)
		case a.poll.hasDeadline:
			return -1
		case b.poll.hasDeadline:
			return 1
		}
		return 0
	})

	for _, s := range slots {
		it := &items[s.item]
		out := &outs[s.item]
		qs.poll = s.poll
		out.Results, out.Info, out.Err = v.recommend(qs, it.Query, it.TopK, it.Exclude, out.Results, 1)
		qs.reset()
	}
	clear(slots) // drop context references before pooling
	qs.batch = slots[:0]
}
