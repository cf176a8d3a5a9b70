package videorec

import (
	"context"
	"fmt"
	"time"

	"videorec/internal/core"
)

// BatchRequest is one query inside a coalesced batch: a stored clip id, the
// requested result count, and an optional per-request context. A nil Ctx
// means the request is bounded only by the batch context passed to
// RecommendBatchCtx.
type BatchRequest struct {
	ClipID string
	TopK   int
	Ctx    context.Context
}

// BatchAnswer is one request's answer. Requests that asked for the same
// (ClipID, TopK) share one Results slice — treat it as read-only, exactly
// like the results of two concurrent Recommend calls for the same clip.
type BatchAnswer struct {
	Results []Recommendation
	Meta    RecommendMeta
	Err     error
}

// RecommendBatch answers a batch of stored-clip queries in one call.
// Equivalent to RecommendBatchCtx with a background batch context.
func (e *Engine) RecommendBatch(reqs []BatchRequest) []BatchAnswer {
	return e.RecommendBatchCtx(context.Background(), reqs)
}

// RecommendBatchCtx answers a batch of stored-clip queries against ONE
// loaded view:
//
//   - Duplicate (ClipID, TopK) requests — the common case under Zipf-shaped
//     click traffic — are computed once and fanned back to every requester
//     (see GroupBatch).
//   - Distinct requests run one after another through the view's serial
//     query pipeline (see core.RecommendBatch), earliest deadline first.
//
// Per-request answers are bit-identical to serial RecommendCtx calls. The
// batch context bounds the whole batch (a serving layer passes its base
// context); each request's own Ctx bounds that request alone — a cancelled
// request settles with its context error while the rest of the batch
// completes, and the request with the nearest deadline degrades (or fails)
// without dragging its cohort down.
func (e *Engine) RecommendBatchCtx(ctx context.Context, reqs []BatchRequest) []BatchAnswer {
	if ctx == nil {
		ctx = context.Background()
	}
	answers := make([]BatchAnswer, len(reqs))
	if len(reqs) == 0 {
		return answers
	}
	cur := e.cur.Load()
	for i := range answers {
		answers[i].Meta.ViewVersion = cur.version
	}
	if !cur.view.Built() {
		for i := range answers {
			answers[i].Err = ErrNotBuilt
		}
		return answers
	}

	groups := GroupBatch(ctx, reqs, answers, cur.view.QueryFor)
	defer groups.Release()
	if len(groups.Items) == 0 {
		return answers
	}
	for gi, out := range cur.view.RecommendBatch(ctx, groups.Items) {
		var shared []Recommendation
		if out.Err == nil {
			shared = convert(out.Results)
		}
		groups.Settle(gi, shared, RecommendMeta{ViewVersion: cur.version, Degraded: out.Info.Degraded}, out.Err)
	}
	return answers
}

// BatchGroups is a batch of requests grouped by (ClipID, TopK): one core
// item per distinct pair, computed once and fanned back to every member.
// Both the Engine and the sharded router serve batches through it.
type BatchGroups struct {
	// Items holds one query per distinct (ClipID, TopK), in first-seen
	// order, each excluding its own clip and carrying its group context.
	Items []core.BatchItem

	reqs    []BatchRequest
	answers []BatchAnswer
	members [][]int // Items index → request indices
	cancels []context.CancelFunc
}

// GroupBatch groups reqs by (ClipID, TopK). A request whose own context is
// already dead settles with that error, and a request whose clip resolve
// cannot find settles with ErrNotFound; both are written to answers at
// once. A singleton group keeps its member's context verbatim — exact
// serial semantics, including that member's own deadline driving
// degradation. A shared group must outlive every member, so it runs under
// ctx until the LATEST member deadline (or under ctx alone when any member
// is unbounded); Settle re-checks each member against its own context. Call
// Release once the items have been answered.
func GroupBatch(ctx context.Context, reqs []BatchRequest, answers []BatchAnswer, resolve func(clipID string) (core.Query, bool)) BatchGroups {
	type groupKey struct {
		clipID string
		topK   int
	}
	g := BatchGroups{
		Items:   make([]core.BatchItem, 0, len(reqs)),
		reqs:    reqs,
		answers: answers,
		members: make([][]int, 0, len(reqs)),
	}
	index := make(map[groupKey]int, len(reqs))
	for i, req := range reqs {
		if rctx := req.Ctx; rctx != nil && rctx.Err() != nil {
			answers[i].Err = rctx.Err()
			continue
		}
		k := groupKey{req.ClipID, req.TopK}
		gi, ok := index[k]
		if !ok {
			q, found := resolve(req.ClipID)
			if !found {
				answers[i].Err = fmt.Errorf("%w: %s", ErrNotFound, req.ClipID)
				continue
			}
			gi = len(g.Items)
			index[k] = gi
			g.Items = append(g.Items, core.BatchItem{Query: q, TopK: req.TopK, Exclude: []string{req.ClipID}})
			g.members = append(g.members, nil)
		}
		g.members[gi] = append(g.members[gi], i)
	}
	for gi := range g.Items {
		g.Items[gi].Ctx = g.groupCtx(ctx, g.members[gi])
	}
	return g
}

// groupCtx is the context one group runs under (see GroupBatch); nil leaves
// the group to the batch context alone.
func (g *BatchGroups) groupCtx(ctx context.Context, members []int) context.Context {
	if len(members) == 1 {
		return g.reqs[members[0]].Ctx
	}
	var latest time.Time
	for _, m := range members {
		rctx := g.reqs[m].Ctx
		if rctx == nil {
			return nil
		}
		d, ok := rctx.Deadline()
		if !ok {
			return nil
		}
		if d.After(latest) {
			latest = d
		}
	}
	gctx, cancel := context.WithDeadline(ctx, latest)
	g.cancels = append(g.cancels, cancel)
	return gctx
}

// Settle answers the members of group gi: a member whose own context has
// died gets that context's error, every other member gets err when it is
// non-nil and the shared results and meta otherwise. Members share one
// read-only results slice.
func (g *BatchGroups) Settle(gi int, results []Recommendation, meta RecommendMeta, err error) {
	for _, m := range g.members[gi] {
		a := &g.answers[m]
		if rctx := g.reqs[m].Ctx; rctx != nil && rctx.Err() != nil {
			a.Err = rctx.Err()
			continue
		}
		if err != nil {
			a.Err = err
			continue
		}
		a.Results, a.Meta = results, meta
	}
}

// Release cancels the shared groups' deadline contexts.
func (g *BatchGroups) Release() {
	for _, cancel := range g.cancels {
		cancel()
	}
}
