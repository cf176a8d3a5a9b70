package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"videorec"
)

// batcher coalesces concurrent stored-clip queries into backend batches:
// behind the admission semaphore, in-flight queries against the same view
// version gather inside a sub-millisecond window (Config.BatchWindow, capped
// at Config.MaxBatch) and execute as ONE RecommendBatchCtx call, which
// computes identical (clip, k) requests once and runs the distinct ones
// through the serial query pipeline.
// A lone query — no other query in flight and no batch forming — bypasses
// the window entirely: single-query latency is untouched.
//
// One batch forms at a time, keyed by the backend version at join time. A
// query observing a different version flushes the forming batch immediately
// (its members were promised answers from the view they joined against) and
// starts a fresh one.
// batchBackend is the slice of Backend the coalescer drives — narrowed so
// tests can substitute a stub with controllable timing.
type batchBackend interface {
	Version() uint64
	RecommendCtx(ctx context.Context, clipID string, topK int) ([]videorec.Recommendation, videorec.RecommendMeta, error)
	RecommendBatchCtx(ctx context.Context, reqs []videorec.BatchRequest) []videorec.BatchAnswer
}

type batcher struct {
	backend  batchBackend
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	pending *pendingBatch

	inFlight atomic.Int64 // queries currently inside recommend()

	batchedTotal atomic.Int64 // queries answered through a batch
	batchFlushes atomic.Int64 // batches executed
	bypassTotal  atomic.Int64 // queries that took the serial path
}

// pendingBatch is the batch currently forming. Answer channels are buffered
// so a member that gave up (its context died while waiting) never blocks the
// flusher's delivery.
type pendingBatch struct {
	version uint64
	reqs    []videorec.BatchRequest
	chans   []chan videorec.BatchAnswer
	timer   *time.Timer
}

// newBatcher returns nil when batching is disabled (window <= 0) — callers
// treat a nil batcher as the plain serial path.
func newBatcher(backend batchBackend, window time.Duration, maxBatch int) *batcher {
	if window <= 0 {
		return nil
	}
	if maxBatch <= 0 {
		maxBatch = 64
	}
	return &batcher{backend: backend, window: window, maxBatch: maxBatch}
}

// recommend answers one stored-clip query, batched when the serving moment
// rewards it. The request context bounds only this query: it rides into the
// batch as the per-request context, so a cancelled member settles with its
// own error while the cohort completes.
func (b *batcher) recommend(ctx context.Context, clipID string, topK int) ([]videorec.Recommendation, videorec.RecommendMeta, error) {
	b.inFlight.Add(1)
	defer b.inFlight.Add(-1)

	version := b.backend.Version()
	b.mu.Lock()
	if b.pending == nil && b.inFlight.Load() <= 1 {
		// Nobody to share work with: serve serially, zero added latency.
		b.mu.Unlock()
		b.bypassTotal.Add(1)
		return b.backend.RecommendCtx(ctx, clipID, topK)
	}
	if b.pending != nil && b.pending.version != version {
		old := b.detachLocked()
		go b.execute(old)
	}
	if b.pending == nil {
		p := &pendingBatch{version: version}
		b.pending = p
		p.timer = time.AfterFunc(b.window, func() {
			b.mu.Lock()
			if b.pending != p {
				b.mu.Unlock()
				return // already flushed by fill or version change
			}
			batch := b.detachLocked()
			b.mu.Unlock()
			b.execute(batch)
		})
	}
	p := b.pending
	ch := make(chan videorec.BatchAnswer, 1)
	p.reqs = append(p.reqs, videorec.BatchRequest{ClipID: clipID, TopK: topK, Ctx: ctx})
	p.chans = append(p.chans, ch)
	var full *pendingBatch
	if len(p.reqs) >= b.maxBatch {
		full = b.detachLocked()
	}
	b.mu.Unlock()
	if full != nil {
		// The member that filled the batch executes it on its own goroutine —
		// its answer arrives on its buffered channel like everyone else's.
		b.execute(full)
	}
	select {
	case a := <-ch:
		return a.Results, a.Meta, a.Err
	case <-ctx.Done():
		// The batch still runs (channel is buffered); this member's item
		// settles inside it with the same context error.
		return nil, videorec.RecommendMeta{}, ctx.Err()
	}
}

// detachLocked removes the forming batch from the slot so the next query
// starts fresh. Callers hold b.mu.
func (b *batcher) detachLocked() *pendingBatch {
	p := b.pending
	b.pending = nil
	if p != nil && p.timer != nil {
		p.timer.Stop()
	}
	return p
}

// execute runs a detached batch and delivers every member's answer. The
// batch context is Background on purpose: each member's own context rode in
// with its request, and no single member's death may bound the cohort.
func (b *batcher) execute(p *pendingBatch) {
	b.batchFlushes.Add(1)
	b.batchedTotal.Add(int64(len(p.reqs)))
	answers := b.backend.RecommendBatchCtx(context.Background(), p.reqs)
	for i, ch := range p.chans {
		ch <- answers[i]
	}
}

// stats reports the coalescer's counters; a nil batcher reports zeros.
func (b *batcher) stats() (batched, flushes, bypass int64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.batchedTotal.Load(), b.batchFlushes.Load(), b.bypassTotal.Load()
}
