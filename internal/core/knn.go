package core

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"videorec/internal/bitset"
	"videorec/internal/faults"
	"videorec/internal/index"
	"videorec/internal/signature"
	"videorec/internal/social"
	"videorec/internal/topk"
)

// minParallelRefine is the candidate count below which step-3 refinement
// stays on the calling goroutine: spawning workers for a handful of κJ
// computations costs more than it saves.
const minParallelRefine = 16

// cancelCheckStride bounds how many cheap candidate-gathering steps run
// between context polls.
const cancelCheckStride = 64

// RecommendInfo describes how a RecommendCtx query was answered.
type RecommendInfo struct {
	// Degraded is true when step-3 EMD refinement was skipped (deadline
	// already inside the degrade margin) or abandoned (deadline expired
	// mid-refinement) and the results carry only the coarse social ranking:
	// Score = s̃J, Content = 0.
	Degraded bool
	// Candidates is the number of candidates gathered for refinement.
	Candidates int
}

// scoredCand is one social candidate (by dense index) with its s̃J score.
type scoredCand struct {
	i uint32
	s float64
}

// poll is one query's cancellation scope: the query's own context and, for
// a batch item, the batch context that bounds it as well. The effective
// deadline is the earlier of the two. A detected cancellation is attributed
// to the query's own context first, so a batch item reports its own error
// rather than the batch's.
type poll struct {
	ctx, bctx   context.Context // bctx is nil outside a batch or when it is ctx
	done, bdone <-chan struct{}
	deadline    time.Time
	hasDeadline bool
}

// newPoll scopes a query to ctx and, when non-nil, the batch context bctx.
func newPoll(ctx, bctx context.Context) poll {
	p := poll{ctx: ctx, done: ctx.Done()}
	p.deadline, p.hasDeadline = ctx.Deadline()
	if bctx != nil && bctx != ctx {
		p.bctx, p.bdone = bctx, bctx.Done()
		if d, ok := bctx.Deadline(); ok && (!p.hasDeadline || d.Before(p.deadline)) {
			p.deadline, p.hasDeadline = d, true
		}
	}
	return p
}

// dead reports whether either context has been cancelled.
func (p *poll) dead() bool {
	return ctxDone(p.done) || ctxDone(p.bdone)
}

// err attributes a detected cancellation: the query's own context error
// wins, the batch context's otherwise.
func (p *poll) err() error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	if p.bctx != nil {
		if err := p.bctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}

// queryScratch is everything one query needs beyond its inputs: its
// cancellation scope, the query vector, the candidate and exclude bitsets,
// the merged candidate-index buffer, the LCP walker, the social and result
// top-K selectors, the refinement result slots and a serial-path EMD
// scratch. It is pooled per view (View.scratch), so steady-state candidate
// gathering allocates nothing. A batch holds one scratch for all its items,
// reset between them, plus its queue of live items.
type queryScratch struct {
	poll    poll
	pollFn  func() bool // poll.dead bound once per scratch, for the EMD kernel
	qvec    social.Vector
	cand    bitset.Set // candidate membership, keyed by dense index
	excl    bitset.Set // per-query exclusions, keyed by dense index
	exclIdx []uint32   // bits set in excl, for cheap clearing
	touched []uint32   // bits set in cand, for cheap clearing
	merged  []uint32   // gathered candidates (exclusions already applied)
	union   index.UnionScratch
	walker  index.Walker
	results []Result
	sel     *topk.Selector[scoredCand]
	resSel  *topk.Selector[Result]
	kj      signature.KJScratch // serial refinement scratch, warm across queries
	batch   []batchSlot         // a batch's live items, in refine order
}

func newQueryScratch() any {
	qs := new(queryScratch)
	qs.pollFn = qs.poll.dead
	return qs
}

// cancelled is the cancellation poll refinement hands the EMD kernel: nil
// when neither context can be cancelled, so the kernel skips polling.
func (qs *queryScratch) cancelled() func() bool {
	if qs.poll.done == nil && qs.poll.bdone == nil {
		return nil
	}
	return qs.pollFn
}

// selector returns the scratch's social top-K selector, creating it on
// first use and resetting it otherwise. The order is total — s̃J descending,
// video id (string, not dense index) ascending — so the kept set is exactly
// the full sort's prefix, bit-identical to the pre-dense string-sorted path.
func (qs *queryScratch) selector(v *View, k int) *topk.Selector[scoredCand] {
	if qs.sel == nil {
		// Capture the view, not a snapshot of its id slice: on the write-side
		// view the intern table can grow between queries, and the pooled
		// selector must always read the current table.
		qs.sel = topk.New(k, func(a, b scoredCand) bool {
			if a.s != b.s {
				return a.s < b.s
			}
			ids := v.intern.ids
			return ids[a.i] > ids[b.i]
		})
		return qs.sel
	}
	qs.sel.Reset(k)
	return qs.sel
}

// resultSelector returns the scratch's final top-K selector.
func (qs *queryScratch) resultSelector() *topk.Selector[Result] {
	if qs.resSel == nil {
		qs.resSel = topk.New(0, worseResult)
	}
	return qs.resSel
}

// addCandidate marks a dense index as gathered. Excluded indices still join
// the candidate bitset (they occupy budget exactly as the map-based path's
// post-hoc filtering behaved) but never reach the merged refinement list.
func (qs *queryScratch) addCandidate(i uint32) {
	qs.cand.Add(i)
	qs.touched = append(qs.touched, i)
	if !qs.excl.Has(i) {
		qs.merged = append(qs.merged, i)
	}
}

// reset clears the scratch for the next query by undoing exactly the bits
// it set — O(candidates), not O(collection) — and drops its contexts.
func (qs *queryScratch) reset() {
	for _, i := range qs.touched {
		qs.cand.Remove(i)
	}
	for _, i := range qs.exclIdx {
		qs.excl.Remove(i)
	}
	qs.touched = qs.touched[:0]
	qs.exclIdx = qs.exclIdx[:0]
	qs.merged = qs.merged[:0]
	qs.results = qs.results[:0]
	qs.poll = poll{}
}

// getScratch hands out a pooled, cleared query scratch.
func (v *View) getScratch() *queryScratch {
	return v.scratch.Get().(*queryScratch)
}

// putScratch clears the scratch and returns it to the pool.
func (v *View) putScratch(qs *queryScratch) {
	qs.reset()
	v.scratch.Put(qs)
}

// resolveExcludes maps the excluded ids into the scratch's exclude bitset.
// Unknown ids are ignored — they cannot be candidates.
func (v *View) resolveExcludes(qs *queryScratch, exclude []string) {
	if len(exclude) == 0 {
		return
	}
	qs.excl.Grow(len(v.intern.ids))
	for _, id := range exclude {
		if i, ok := v.intern.idx[id]; ok {
			qs.excl.Add(i)
			qs.exclIdx = append(qs.exclIdx, i)
		}
	}
}

// Recommend returns the topK highest-FJ videos for the query, excluding the
// ids in exclude (normally the query video itself). It implements the KNN
// search of Figure 6 against the frozen view:
//
//  1. vectorize the query's social descriptor and rank the inverted-file
//     candidates by s̃J (SAR modes), or schedule a full exact-sJ scan
//     (ModeExact — the unoptimized CSF the paper starts from);
//  2. expand content candidates from the LSB-tree in next-longest-common-
//     prefix order;
//  3. refine candidates with the fused FJ relevance across a bounded worker
//     pool, keeping the top K.
//
// The repeat-until-K loop of Figure 6 has no tight termination bound under
// LSH, so the implementation uses the explicit probe budgets of Options
// (ContentProbe walker pops, CandidateLimit refinements), which plays the
// role of the paper's stopping rule.
//
// Refinement is deterministic: each candidate's κJ/s̃J pair is computed
// independently into a slot indexed by the candidate's position in the
// gathered index list, so the parallel pool produces bit-identical rankings
// to the serial path (Options.RefineWorkers = 1) regardless of scheduling.
func (v *View) Recommend(q Query, topK int, exclude ...string) []Result {
	res, _, _ := v.RecommendCtx(context.Background(), q, topK, exclude...)
	return res
}

// RecommendCtx is Recommend with deadline-aware serving semantics:
//
//   - Cancellation is cooperative through the whole pipeline: candidate
//     gathering polls the context between probes and every refinement
//     worker polls it between EMD evaluations (signature.KJCancelCompiled),
//     so a canceled request stops burning CPU within about one EMD
//     evaluation and returns ctx.Err().
//   - Degradation is the deadline policy: when the deadline is already
//     within Options.DegradeMargin at refinement start — or expires while
//     refinement runs — the query is answered from the coarse social ranking
//     it already has (s̃J over SAR vectors; exact sJ in ModeExact) instead of
//     failing with DeadlineExceeded, and the result is flagged Degraded. A
//     negative DegradeMargin disables the fallback.
//
// Without a deadline or cancellation the results are bit-identical to
// Recommend.
func (v *View) RecommendCtx(ctx context.Context, q Query, topK int, exclude ...string) ([]Result, RecommendInfo, error) {
	if topK <= 0 {
		return nil, RecommendInfo{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, RecommendInfo{}, err
	}
	qs := v.getScratch()
	defer v.putScratch(qs)
	qs.poll = newPoll(ctx, nil)
	return v.recommend(qs, q, topK, exclude, nil, v.opts.RefineWorkers)
}

// recommend is the one Figure 6 pipeline, run by RecommendCtx and by every
// batch item alike: gather, the degrade check, refinement across workers
// (or the coarse finish), and the top-K selection into dst's storage.
// qs.poll carries the query's cancellation scope. On error dst comes back
// emptied.
func (v *View) recommend(qs *queryScratch, q Query, topK int, exclude []string, dst []Result, workers int) ([]Result, RecommendInfo, error) {
	var info RecommendInfo
	v.resolveExcludes(qs, exclude)
	useContent, useSocial, err := v.gather(q, qs)
	if err != nil {
		return dst[:0], info, err
	}
	info.Candidates = len(qs.merged)

	// Degrade up front when the deadline cannot plausibly fit a full EMD
	// refinement pass: answer with the coarse social ranking immediately.
	canDegrade := useContent && useSocial && v.opts.DegradeMargin > 0
	if canDegrade && qs.poll.hasDeadline && time.Until(qs.poll.deadline) < v.opts.DegradeMargin {
		return v.finishCoarse(q, qs, topK, dst, info, true)
	}

	results, err := v.refine(q, qs, useContent, useSocial, workers)
	if err != nil {
		// A deadline that expired mid-refinement still gets the coarse
		// answer, computed without further polling; cancellation and
		// injected faults propagate as errors.
		if canDegrade && err == context.DeadlineExceeded {
			return v.finishCoarse(q, qs, topK, dst, info, false)
		}
		return dst[:0], info, err
	}
	return topKResultsInto(dst, results, topK, qs.resultSelector()), info, nil
}

// GatherCandidates runs candidate generation only — steps 1–2 of the
// Figure 6 KNN search, exactly as RecommendCtx performs them, without the
// step-3 refinement — and reports how many candidates survived exclusion.
// It exists for benchmarking and testing the gathering path in isolation;
// with a warm view it allocates nothing.
func (v *View) GatherCandidates(ctx context.Context, q Query, exclude ...string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	qs := v.getScratch()
	defer v.putScratch(qs)
	qs.poll = newPoll(ctx, nil)
	v.resolveExcludes(qs, exclude)
	if _, _, err := v.gather(q, qs); err != nil {
		return 0, err
	}
	return len(qs.merged), nil
}

// gather fills qs.merged with the candidate set of steps 1–2, polling
// qs.poll between probe steps. Candidates are dense video indices; the
// dense-index order is the deterministic order — no per-query id sort.
func (v *View) gather(q Query, qs *queryScratch) (useContent, useSocial bool, err error) {
	useSocial = !v.opts.ContentWeightOnly
	useContent = !v.opts.SocialOnly
	if useSocial && v.opts.Mode != ModeExact {
		v.mustBuild()
		qs.qvec = social.VectorizeInto(qs.qvec, q.Desc, v.look, v.part.Dim)
	}

	switch {
	case v.opts.FullScan || (v.opts.Mode == ModeExact && useSocial):
		// Unoptimized CSF (or an effectiveness run that wants exhaustive
		// ranking): every stored video is refined.
		for i, rec := range v.recs {
			if i%cancelCheckStride == 0 && qs.poll.dead() {
				return false, false, qs.poll.err()
			}
			if rec == nil || qs.excl.Has(uint32(i)) {
				continue
			}
			qs.merged = append(qs.merged, uint32(i))
		}
	default:
		qs.cand.Grow(len(v.intern.ids))
		if useSocial {
			// Step 1: social candidates ranked by s̃J; keep the budgeted top.
			// The inverted-file union is a k-way merge of sorted posting
			// lists, and only CandidateLimit winners survive, so a bounded
			// heap selects them in O(n log limit). The (s desc, id asc)
			// order is total, so the kept set is exactly the full sort's
			// prefix.
			socCands := v.inv.Union(qs.qvec, &qs.union)
			sel := qs.selector(v, v.opts.CandidateLimit)
			for i, idx := range socCands {
				if i%cancelCheckStride == 0 && qs.poll.dead() {
					return false, false, qs.poll.err()
				}
				sel.Offer(scoredCand{i: idx, s: social.ApproxJaccard(qs.qvec, v.recs[idx].Vec)})
			}
			for _, sc := range sel.Items() {
				qs.addCandidate(sc.i)
			}
		}
		if useContent {
			// Step 2: content candidates in LCP order. The expansion budget
			// counts candidates *content itself adds*: a full social step no
			// longer starves content expansion by pre-filling the shared cap.
			if q.contentKeys != nil && q.keyFP == v.lsb.KeyFingerprint() {
				qs.walker.ResetWithKeys(v.lsb, q.Series, q.contentKeys)
			} else {
				qs.walker.Reset(v.lsb, q.Series)
			}
			added := 0
			for pops := 0; pops < v.opts.ContentProbe; pops++ {
				if pops%cancelCheckStride == 0 && qs.poll.dead() {
					return false, false, qs.poll.err()
				}
				e, _, ok := qs.walker.Next()
				if !ok {
					break
				}
				if v.tombstones.Has(e.Video) || qs.cand.Has(e.Video) {
					continue
				}
				qs.addCandidate(e.Video)
				added++
				if added >= 2*v.opts.CandidateLimit {
					break
				}
			}
		}
	}
	return useContent, useSocial, nil
}

// ctxDone is a non-blocking poll of a context's done channel.
func ctxDone(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// finishCoarse ranks the candidate set by social relevance alone — the
// coarse SAR scores step 1 already paid for — skipping EMD refinement
// entirely. s̃J over SAR vectors is a k-dimensional min/max ratio, orders of
// magnitude cheaper than κJ, so this path answers within any realistic
// margin. With live set the query's contexts are still honored (a hard
// cancel beats degradation); after a mid-refinement expiry they are not.
func (v *View) finishCoarse(q Query, qs *queryScratch, topK int, dst []Result, info RecommendInfo, live bool) ([]Result, RecommendInfo, error) {
	results := qs.resultSlots(len(qs.merged))
	for i, idx := range qs.merged {
		if live && i%cancelCheckStride == 0 && qs.poll.dead() {
			return dst[:0], info, qs.poll.err()
		}
		soc := v.socialRelevanceRec(q, qs.qvec, v.recs[idx])
		results[i] = Result{VideoID: v.intern.ids[idx], Score: soc, Social: soc}
	}
	info.Degraded = true
	return topKResultsInto(dst, results, topK, qs.resultSelector()), info, nil
}

// resultSlots returns the scratch's result buffer resized to n.
func (qs *queryScratch) resultSlots(n int) []Result {
	if cap(qs.results) >= n {
		qs.results = qs.results[:n]
	} else {
		qs.results = make([]Result, n)
	}
	return qs.results
}

// worseResult is the total result order of the top-K selection: a ranks
// strictly below b under (score desc, id asc).
func worseResult(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.VideoID > b.VideoID
}

// topKResultsInto selects the topK best results under (score desc, id asc)
// into dst's storage through a caller-owned selector. When the candidate set
// exceeds topK — the normal serving shape, hundreds of refined candidates
// for a top-10 answer — the bounded heap selects the winners in
// O(n log topK) instead of sorting everything; the order is total, so the
// output is identical to sort-and-truncate. The output never aliases
// results, which may be pooled scratch storage; a nil dst yields a freshly
// allocated slice.
func topKResultsInto(dst, results []Result, topK int, sel *topk.Selector[Result]) []Result {
	if len(results) <= topK {
		dst = append(dst[:0], results...)
		sort.Slice(dst, func(a, b int) bool { return worseResult(dst[b], dst[a]) })
		return dst
	}
	sel.Reset(topK)
	for _, r := range results {
		sel.Offer(r)
	}
	return sel.SortedInto(dst[:0])
}

// scorer is one query's step-3 scoring inputs.
type scorer struct {
	v          *View
	qs         *queryScratch
	q          Query
	qc         *signature.CompiledSeries
	useContent bool
	useSocial  bool
	cancelled  func() bool
}

// score computes the fused relevance of candidate i into its result slot,
// polling the query's contexts before the candidate and, through
// signature.KJCancelCompiled, between individual EMD evaluations.
func (s *scorer) score(i int, scratch *signature.KJScratch) error {
	if err := faults.Inject(faults.RefineScore); err != nil {
		return err
	}
	if s.cancelled != nil && s.cancelled() {
		return s.qs.poll.err()
	}
	v := s.v
	idx := s.qs.merged[i]
	rec := v.recs[idx]
	var content, soc float64
	if s.useContent && rec != nil {
		kj, complete := signature.KJCancelCompiled(s.qc, rec.Compiled, v.opts.MatchThreshold, s.cancelled, scratch)
		if !complete {
			return s.qs.poll.err()
		}
		content = kj
	}
	if s.useSocial && rec != nil {
		soc = v.socialRelevanceRec(s.q, s.qs.qvec, rec)
	}
	s.qs.results[i] = Result{
		VideoID: v.intern.ids[idx],
		Score:   v.fuse(content, soc),
		Content: content,
		Social:  soc,
	}
	return nil
}

// refine computes the fused relevance of every gathered candidate across up
// to workers goroutines (≤0 means GOMAXPROCS). Each result lands in the slot
// of its candidate's position in qs.merged, keeping the output independent
// of scheduling.
//
// Steady-state refinement allocates nothing but the worker goroutines: the
// query's series is compiled once per query, every stored candidate's
// compiled series is cached in its record and resolved by dense index (no
// string re-hash per score), the result slots live in the pooled query
// scratch, and the serial path scores with the scratch's warm
// signature.KJScratch.
func (v *View) refine(q Query, qs *queryScratch, useContent, useSocial bool, workers int) ([]Result, error) {
	s := scorer{v: v, qs: qs, q: q, useContent: useContent, useSocial: useSocial, cancelled: qs.cancelled()}
	if useContent {
		s.qc = q.compiled()
	}
	n := len(qs.merged)
	results := qs.resultSlots(n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallelRefine {
		for i := 0; i < n; i++ {
			if err := s.score(i, &qs.kj); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	if err := s.parallel(workers); err != nil {
		return nil, err
	}
	return results, nil
}

// parallel is refine's worker pool. Candidates are claimed from a shared
// atomic cursor (κJ cost varies with series length, so static chunking
// would leave workers idle); the first cancellation or injected fault stops
// every worker claiming further work. Each worker draws a warm
// signature.KJScratch from the view's per-worker pool (strictly private
// while held — never shared). s is taken by value so only this path's copy
// escapes to the workers.
func (s scorer) parallel(workers int) error {
	n := len(s.qs.merged)
	var failure atomic.Pointer[error]
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := s.v.kjScratch.Get().(*signature.KJScratch)
			defer s.v.kjScratch.Put(scratch)
			for failure.Load() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := s.score(i, scratch); err != nil {
					e := err // escapes only on failure
					failure.CompareAndSwap(nil, &e)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := failure.Load(); p != nil {
		return *p
	}
	return nil
}

// RecommendID recommends for a stored video, excluding the video itself.
func (v *View) RecommendID(id string, topK int) []Result {
	res, _, _ := v.RecommendIDCtx(context.Background(), id, topK)
	return res
}

// RecommendIDCtx is RecommendID with the deadline-aware semantics of
// RecommendCtx.
func (v *View) RecommendIDCtx(ctx context.Context, id string, topK int) ([]Result, RecommendInfo, error) {
	q, ok := v.QueryFor(id)
	if !ok {
		return nil, RecommendInfo{}, nil
	}
	return v.RecommendCtx(ctx, q, topK, id)
}

// Recommend runs the KNN search against the recommender's current state.
// Unlike View.Recommend it is not safe for use concurrent with mutations;
// freeze a View for lock-free serving.
func (r *Recommender) Recommend(q Query, topK int, exclude ...string) []Result {
	return r.state.Recommend(q, topK, exclude...)
}

// RecommendID recommends for a stored video, excluding the video itself.
func (r *Recommender) RecommendID(id string, topK int) []Result {
	return r.state.RecommendID(id, topK)
}
