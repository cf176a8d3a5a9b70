package core

import (
	"testing"

	"videorec/internal/dataset"
	"videorec/internal/signature"
	"videorec/internal/topk"
)

// buildGolden is buildSmall with an options hook, so golden variants can
// toggle FullScan, baselines and worker counts on the same generated
// collection.
func buildGolden(t testing.TB, mutate func(*Options)) *View {
	t.Helper()
	o := dataset.DefaultOptions()
	o.Hours = 4
	o.Users = 150
	o.Seed = 11
	c := dataset.Generate(o)
	opts := DefaultOptions()
	opts.K = 12
	if mutate != nil {
		mutate(&opts)
	}
	r := NewRecommender(opts)
	for _, it := range c.Items {
		v := it.Render(o.Synth)
		r.IngestVideo(it.ID, v, descriptorOf(c, it))
	}
	r.BuildSocial()
	return r.Freeze()
}

// uncompiledRecommend is the reference refinement: it gathers exactly as
// the pipeline does, then scores every candidate with κJ over the raw
// series (signature.KJ) plus the view's social relevance, fuses, and keeps
// the top K.
func uncompiledRecommend(t *testing.T, v *View, q Query, topK int, exclude ...string) []Result {
	t.Helper()
	qs := v.getScratch()
	defer v.putScratch(qs)
	v.resolveExcludes(qs, exclude)
	useContent, useSocial, err := v.gather(q, qs)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]Result, len(qs.merged))
	for i, idx := range qs.merged {
		rec := v.recs[idx]
		var content, soc float64
		if useContent {
			content = signature.KJ(q.Series, rec.Series, v.opts.MatchThreshold)
		}
		if useSocial {
			soc = v.socialRelevanceRec(q, qs.qvec, rec)
		}
		results[i] = Result{VideoID: rec.ID, Score: v.fuse(content, soc), Content: content, Social: soc}
	}
	return topKResultsInto(nil, results, topK, topk.New(0, worseResult))
}

func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The compiled refinement path must be a pure representation change: for
// every mode, candidate policy and worker count, the ranked results — ids,
// fused scores and both component relevances — must be bit-identical to the
// uncompiled reference computed over the same gathered candidates. Both
// route SimC through the same merge kernel over identically stable-sorted
// cuboids, so not even floating-point summation order differs.
func TestCompiledRefineGolden(t *testing.T) {
	const topK = 10
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		{"exact", func(o *Options) { o.Mode = ModeExact }},
		{"sar", func(o *Options) { o.Mode = ModeSAR }},
		{"sarhash", func(o *Options) { o.Mode = ModeSARHash }},
		{"sarhash-serial", func(o *Options) { o.Mode = ModeSARHash; o.RefineWorkers = 1 }},
		{"sarhash-fullscan", func(o *Options) { o.Mode = ModeSARHash; o.FullScan = true }},
		{"content-only", func(o *Options) { o.Mode = ModeSARHash; o.ContentWeightOnly = true }},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			v := buildGolden(t, tc.mutate)
			ids := v.SortedIDs()
			if len(ids) > 8 {
				ids = ids[:8]
			}
			for _, id := range ids {
				q, ok := v.QueryFor(id)
				if !ok {
					t.Fatalf("missing record %s", id)
				}
				fast := v.Recommend(q, topK, id)
				slow := uncompiledRecommend(t, v, q, topK, id)
				if !resultsEqual(fast, slow) {
					t.Fatalf("query %s: compiled and uncompiled rankings differ\ncompiled:   %+v\nuncompiled: %+v", id, fast, slow)
				}
				if len(fast) == 0 {
					t.Fatalf("query %s returned no results", id)
				}
			}
		})
	}
}

// A zero-value Query (no precompiled series) must take the compile-on-demand
// path and still match the reference bit-for-bit.
func TestCompiledRefineGoldenAdHoc(t *testing.T) {
	v := buildGolden(t, nil)
	id := v.SortedIDs()[0]
	rec, _ := v.Record(id)
	raw := Query{Series: rec.Series, Desc: rec.Desc} // comp deliberately nil
	fast := v.Recommend(raw, 10, id)
	slow := uncompiledRecommend(t, v, raw, 10, id)
	if !resultsEqual(fast, slow) {
		t.Fatalf("ad-hoc query: compiled %+v != uncompiled %+v", fast, slow)
	}
}

// The per-candidate refinement step — compiled κJ between a real query and a
// real stored record, with a warmed worker scratch — must allocate nothing.
func TestRefineStepZeroAlloc(t *testing.T) {
	v := buildGolden(t, nil)
	ids := v.SortedIDs()
	if len(ids) < 2 {
		t.Fatal("fixture too small")
	}
	q, _ := v.QueryFor(ids[0])
	qc := q.compiled()
	rec, _ := v.Record(ids[1])
	var scratch signature.KJScratch
	// Warm the scratch against every stored record so the measured loop hits
	// its steady-state high-water mark.
	for _, id := range ids {
		r, _ := v.Record(id)
		signature.KJCancelCompiled(qc, r.Compiled, v.Options().MatchThreshold, nil, &scratch)
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		kj, _ := signature.KJCancelCompiled(qc, rec.Compiled, v.Options().MatchThreshold, nil, &scratch)
		sink += kj
	})
	if allocs != 0 {
		t.Fatalf("per-candidate refine step allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}
