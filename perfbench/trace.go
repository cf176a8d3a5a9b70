package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"videorec"
	"videorec/internal/core"
	"videorec/internal/emd"
	"videorec/internal/shard"
	"videorec/internal/signature"
	"videorec/internal/store"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// add records a span measured elsewhere: an HTTP request timed by the load
// generator, or a duration the program reports about its own work.
func (t *tracer) add(name string, req, parent int, start, end time.Duration) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end)})
	return len(t.spans)
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// p50us is the median duration of the spans called name, in µs.
func (t *tracer) p50us(name string) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		xs = append(xs, us(s.dur()))
	}
	return quantile(xs, 0.5)
}

// selfUS returns, per span called name, its duration minus the part of it
// its children cover, in µs.
func (t *tracer) selfUS(name string) []float64 {
	covered := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, us(s.dur()-covered[s.ID]))
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Sink keeps measured results alive so the compiler cannot drop the calls.
var sink float64

const (
	traceQueries = 200  // stream reads timed through each engine read-path layer
	shardQueries = 100  // of those, reads timed through the router and its shards
	kjPairs      = 2000 // query/candidate pairs timed through κJ
	d1Block      = 256  // Distance1DSorted calls per span
	d1Blocks     = 400
	hitProbes    = 200
	traceShards  = 4
)

func runTraced(w workload, e *env, seed int64, d time.Duration, rep *report) (result, error) {
	tr := newTracer()
	s := makeStreams(w, e, seed, d/4, 0)
	rep.Inputs = inputProps(w, e, s)
	m := map[string]metric{}
	res := result{Correct: true, Metrics: m}

	// The server layers, over HTTP: the workload's open loop, bracketed by
	// /stats scrapes, then cached reads one at a time.
	srv, err := startSUT(e, 0)
	if err != nil {
		return res, err
	}
	c := newClient(srv.url, runtime.NumCPU(), e.inCorpus, e.encoded)
	r := runner{c: c, conns: runtime.NumCPU()}
	res.tally(rep, r.closedLoop(s.warm, time.Hour))
	st0, err := scrapeStats(c)
	if err != nil {
		srv.stop()
		return res, err
	}
	t0 := time.Since(tr.t0)
	open := r.openLoop(s.open)
	st1, err := scrapeStats(c)
	if err != nil {
		srv.stop()
		return res, err
	}
	res.tally(rep, open)
	for i, o := range open {
		tr.add("http.recommend", i, 0, t0+o.Due, t0+o.Done)
	}
	one := runner{c: c, conns: 1}
	for i, o := range s.open[:min(hitProbes, len(s.open))] {
		pair := one.closedLoop([]op{{ID: o.ID}, {ID: o.ID}}, time.Hour)
		res.tally(rep, pair)
		t := time.Since(tr.t0) - pair[1].Done
		tr.add("server.hit", len(open)+i, 0, t+pair[1].Sent, t+pair[1].Done)
	}
	c.close()
	if err := srv.stop(); err != nil {
		return res, fmt.Errorf("stop server: %w", err)
	}
	hits, misses := st1["cacheHits"]-st0["cacheHits"], st1["cacheMisses"]-st0["cacheMisses"]
	m["server.hit_us"] = metric{tr.p50us("server.hit"), "us"}
	m["server.cache_hit_share"] = metric{hits / max(hits+misses, 1), "ratio"}
	m["overload.queue_wait_p99_ms"] = metric{st1["queueWaitP99Ms"], "ms"}

	var reads []string
	for _, o := range s.open[:min(traceQueries, len(s.open))] {
		reads = append(reads, o.ID)
	}
	n, err := traceLayers(tr, e, reads, m)
	res.Attempted += n
	if err != nil {
		return res, err
	}

	dir := filepath.Join(e.dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	sum, _ := json.MarshalIndent(map[string]any{"workload": w.name, "seed": seed, "spans": len(tr.spans), "metrics": m}, "", "  ")
	if err := os.WriteFile(base+".summary.json", append(sum, '\n'), 0o644); err != nil {
		return res, fmt.Errorf("write trace summary: %w", err)
	}
	return res, nil
}

// scrapeStats reads the numeric fields of GET /stats.
func scrapeStats(c *client) (map[string]float64, error) {
	resp, err := c.http.Get(c.url + "/stats")
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decode stats: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// traceLayers times each layer's public functions from this process over
// the corpus and the stream's reads, recording a span per call, and fills
// in the per-layer metrics. It returns how many calls it made.
func traceLayers(tr *tracer, e *env, reads []string, m map[string]metric) (int, error) {
	ctx := context.Background()
	calls := 0
	req := len(tr.spans) + 1 // request ids continue after the HTTP spans

	// Ingest and build, as the server sets up.
	runtime.GC()
	eng := videorec.New(videorec.Options{})
	sp := tr.begin("videorec.ingest", req, 0)
	for i := range e.corpus.Clips {
		if err := eng.AddPrepared(e.corpus.Clips[i].Prepared()); err != nil {
			return calls, err
		}
	}
	tr.end(sp)
	sp = tr.begin("core.build", req, 0)
	eng.Build()
	tr.end(sp)
	calls += len(e.corpus.Clips) + 1
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["videorec.ingest_ms"] = metric{ms(tr.named("videorec.ingest")[0].dur()), "ms"}
	m["core.build_ms"] = metric{ms(tr.named("core.build")[0].dur()), "ms"}
	m["core.heap_mb"] = metric{float64(mem.HeapInuse) / (1 << 20), "MiB"}

	// The read path on the served view: the whole query, its candidate
	// generation alone, and the batch entry point with one request.
	view, _ := eng.CurrentView()
	var refine []float64
	var cands, kept int
	for _, id := range reads {
		req++
		q, ok := view.QueryFor(id)
		if !ok {
			return calls, fmt.Errorf("no query for %s", id)
		}
		root := tr.begin("query", req, 0)
		sp := tr.begin("core.recommend", req, root)
		res, info, err := view.RecommendCtx(ctx, q, topK, id)
		tr.end(sp)
		if err != nil {
			return calls, err
		}
		sg := tr.begin("core.gather", req, root)
		if _, err := view.GatherCandidates(ctx, q, id); err != nil {
			return calls, err
		}
		tr.end(sg)
		sb := tr.begin("videorec.batch1", req, root)
		ans := eng.RecommendBatchCtx(ctx, []videorec.BatchRequest{{ClipID: id, TopK: topK}})
		tr.end(sb)
		tr.end(root)
		if ans[0].Err != nil {
			return calls, ans[0].Err
		}
		calls += 3
		cands += info.Candidates
		kept += len(res)
		refine = append(refine, us(tr.spans[sp-1].dur()-tr.spans[sg-1].dur()))
	}
	m["core.recommend_us"] = metric{tr.p50us("core.recommend"), "us"}
	m["core.gather_us"] = metric{tr.p50us("core.gather"), "us"}
	m["core.refine_us"] = metric{quantile(refine, 0.5), "us"}
	m["core.candidates"] = metric{float64(cands) / float64(len(reads)), "count"}
	m["core.refine_yield"] = metric{float64(kept) / float64(max(cands, 1)), "ratio"}
	m["videorec.batch1_us"] = metric{tr.p50us("videorec.batch1"), "us"}

	// The refinement kernels on sampled query/candidate pairs.
	rng := rand.New(rand.NewSource(int64(len(reads))))
	threshold := view.Options().MatchThreshold
	var scratch signature.KJScratch
	var sigPairs [][2]*signature.Compiled
	for i := 0; i < kjPairs; i++ {
		a, _ := view.Record(reads[i%len(reads)])
		b, _ := view.Record(e.ids[rng.Intn(len(e.ids))])
		req++
		sp := tr.begin("signature.kj", req, 0)
		kj, _ := signature.KJCancelCompiled(a.Compiled, b.Compiled, threshold, nil, &scratch)
		tr.end(sp)
		sink += kj
		x := &a.Compiled.Sigs[rng.Intn(len(a.Compiled.Sigs))]
		y := &b.Compiled.Sigs[rng.Intn(len(b.Compiled.Sigs))]
		if x.OK && y.OK && !emd.MassMismatch(x.Mass, y.Mass) {
			sigPairs = append(sigPairs, [2]*signature.Compiled{x, y})
		}
	}
	calls += kjPairs
	m["signature.kj_us"] = metric{tr.p50us("signature.kj"), "us"}
	var d1 []float64
	for blk := 0; blk < d1Blocks; blk++ {
		req++
		sp := tr.begin("emd.d1_block", req, 0)
		for k := 0; k < d1Block; k++ {
			p := sigPairs[(blk*d1Block+k)%len(sigPairs)]
			sink += emd.Distance1DSorted(p[0].V, p[0].W, p[1].V, p[1].W, p[0].Mass/p[1].Mass)
		}
		tr.end(sp)
		d1 = append(d1, float64(tr.spans[sp-1].dur())/d1Block)
	}
	calls += d1Blocks * d1Block
	m["emd.d1_ns"] = metric{quantile(d1, 0.5), "ns"}

	// The sharded read path: the router, then each shard's view on the same
	// query, one after another.
	router, err := shard.New(traceShards, videorec.Options{})
	if err != nil {
		return calls, err
	}
	for i := range e.corpus.Clips {
		if err := router.AddPrepared(e.corpus.Clips[i].Prepared()); err != nil {
			return calls, err
		}
	}
	router.Build()
	if err := router.AttachJournals(filepath.Join(e.tmp, "trace-journal")); err != nil {
		return calls, err
	}
	defer router.CloseJournal()
	var overhead []float64
	for _, id := range reads[:min(shardQueries, len(reads))] {
		req++
		root := tr.begin("shard.query", req, 0)
		sp := tr.begin("shard.recommend", req, root)
		if _, _, err := router.RecommendCtx(ctx, id, topK); err != nil {
			return calls, err
		}
		tr.end(sp)
		q, ok := ownerQuery(router, id)
		if !ok {
			return calls, fmt.Errorf("no shard owns %s", id)
		}
		var slowest time.Duration
		for i := 0; i < router.NumShards(); i++ {
			se, _ := router.ShardEngine(i)
			v, _ := se.CurrentView()
			sv := tr.begin("shard.view_recommend", req, root)
			if _, _, err := v.RecommendCtx(ctx, v.PrimeContentKeys(q), topK, id); err != nil {
				return calls, err
			}
			tr.end(sv)
			slowest = max(slowest, tr.spans[sv-1].dur())
		}
		tr.end(root)
		calls += 1 + router.NumShards()
		overhead = append(overhead, us(tr.spans[sp-1].dur()-slowest))
	}
	m["shard.recommend_us"] = metric{tr.p50us("shard.recommend"), "us"}
	m["shard.overhead_us"] = metric{quantile(overhead, 0.5), "us"}

	// The write path, once through the comment replay: the router's whole
	// update; the engine's derivation and application, with the
	// maintenance time the engine reports as a child of the latter; and
	// the journal append alone.
	for _, b := range e.batches {
		req++
		sp := tr.begin("shard.update", req, 0)
		if _, err := router.ApplyUpdates(b); err != nil {
			return calls, err
		}
		tr.end(sp)
	}
	calls += len(e.batches)
	m["shard.update_us"] = metric{tr.p50us("shard.update"), "us"}
	for _, b := range e.batches {
		req++
		root := tr.begin("update", req, 0)
		sd := tr.begin("core.derive", req, root)
		edges, err := eng.DeriveConnections(b)
		tr.end(sd)
		if err != nil {
			return calls, err
		}
		sa := tr.begin("core.apply", req, root)
		sum, err := eng.ApplyConnections(edges, b)
		tr.end(sa)
		if err != nil {
			return calls, err
		}
		start := time.Duration(tr.spans[sa-1].Start)
		tr.add("community.maintain", req, sa, start, start+sum.MaintenanceDuration)
		tr.end(root)
		calls += 2
	}
	var maint []float64
	for _, s := range tr.named("community.maintain") {
		maint = append(maint, us(s.dur()))
	}
	m["core.derive_us"] = metric{tr.p50us("core.derive"), "us"}
	m["community.maintain_us"] = metric{quantile(maint, 0.5), "us"}
	m["core.publish_us"] = metric{quantile(tr.selfUS("core.apply"), 0.5), "us"}

	j, err := store.OpenJournal(filepath.Join(e.tmp, "append.wal"))
	if err != nil {
		return calls, err
	}
	for _, b := range e.batches {
		req++
		sp := tr.begin("store.append", req, 0)
		err := j.Append(b)
		tr.end(sp)
		if err != nil {
			j.Close()
			return calls, err
		}
	}
	calls += len(e.batches)
	if err := j.Close(); err != nil {
		return calls, err
	}
	m["store.append_us"] = metric{tr.p50us("store.append"), "us"}
	return calls, nil
}

// ownerQuery builds the query for a stored clip from the shard that holds
// it, as the router does.
func ownerQuery(router *shard.Router, id string) (q core.Query, ok bool) {
	for i := 0; i < router.NumShards(); i++ {
		se, _ := router.ShardEngine(i)
		v, _ := se.CurrentView()
		if q, ok := v.QueryFor(id); ok {
			return q, true
		}
	}
	return q, false
}
