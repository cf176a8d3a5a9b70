package core

import (
	"context"
	"sort"
	"testing"

	"videorec/internal/signature"
	"videorec/internal/social"
)

// referenceCandidates recomputes candidate generation (steps 1–2) with the
// straightforward map-based pipeline the dense path replaced: the
// inverted-file union as a scan over every record's vector into a string map,
// social ranking by full sort, and the LCP walk deduplicated through the map.
// The returned set excludes the excluded ids, like gather's merged list.
func referenceCandidates(v *View, q Query, exclude ...string) map[string]bool {
	opts := v.Options()
	useSocial := !opts.ContentWeightOnly
	useContent := !opts.SocialOnly
	excl := map[string]bool{}
	for _, id := range exclude {
		excl[id] = true
	}
	var qvec social.Vector
	if useSocial && opts.Mode != ModeExact {
		qvec = social.Vectorize(q.Desc, v.lookupFunc(), v.part.Dim)
	}
	candidates := map[string]bool{}
	if opts.FullScan || (opts.Mode == ModeExact && useSocial) {
		for _, id := range v.order {
			candidates[id] = true
		}
	} else {
		if useSocial {
			// Union = every live video sharing a non-zero dimension with the
			// query vector; keep the CandidateLimit best by (s̃J desc, id asc).
			// Excluded ids still occupy selection slots.
			type scored struct {
				id string
				s  float64
			}
			var cands []scored
			for _, id := range v.order {
				rec := v.record(id)
				inUnion := false
				for d, x := range qvec {
					if x > 0 && d < len(rec.Vec) && rec.Vec[d] > 0 {
						inUnion = true
						break
					}
				}
				if inUnion {
					cands = append(cands, scored{id, social.ApproxJaccard(qvec, rec.Vec)})
				}
			}
			sort.Slice(cands, func(a, b int) bool {
				if cands[a].s != cands[b].s {
					return cands[a].s > cands[b].s
				}
				return cands[a].id < cands[b].id
			})
			if len(cands) > opts.CandidateLimit {
				cands = cands[:opts.CandidateLimit]
			}
			for _, c := range cands {
				candidates[c.id] = true
			}
		}
		if useContent {
			w := v.lsb.NewWalker(q.Series)
			added := 0
			for pops := 0; pops < opts.ContentProbe; pops++ {
				e, _, ok := w.Next()
				if !ok {
					break
				}
				id := v.intern.ids[e.Video]
				if v.tombstones.Has(e.Video) || candidates[id] {
					continue
				}
				candidates[id] = true
				added++
				if added >= 2*opts.CandidateLimit {
					break
				}
			}
		}
	}
	for id := range excl {
		delete(candidates, id)
	}
	return candidates
}

// referenceRecommend scores the reference candidate set directly — uncompiled
// κJ, mode-appropriate social relevance, Equation 9 fusion — and ranks by a
// full sort under (score desc, id asc). It is the executable specification
// the dense pipeline (bitset candidates, k-way posting merge, heap walker,
// pooled scratch, heap top-K) must reproduce bit for bit.
func referenceRecommend(v *View, q Query, topK int, exclude ...string) []Result {
	opts := v.Options()
	useSocial := !opts.ContentWeightOnly
	useContent := !opts.SocialOnly
	var qvec social.Vector
	if useSocial && opts.Mode != ModeExact {
		qvec = social.Vectorize(q.Desc, v.lookupFunc(), v.part.Dim)
	}
	ids := make([]string, 0, 64)
	for id := range referenceCandidates(v, q, exclude...) {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	results := make([]Result, 0, len(ids))
	for _, id := range ids {
		rec := v.record(id)
		var content, soc float64
		if useContent {
			content = signature.KJ(q.Series, rec.Series, opts.MatchThreshold)
		}
		if useSocial {
			soc = v.socialRelevanceRec(q, qvec, rec)
		}
		results = append(results, Result{VideoID: id, Score: v.fuse(content, soc), Content: content, Social: soc})
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Score != results[b].Score {
			return results[a].Score > results[b].Score
		}
		return results[a].VideoID < results[b].VideoID
	})
	if len(results) > topK {
		results = results[:topK]
	}
	return results
}

// TestDenseRecommendMatchesReference proves the dense-ID rewrite is a pure
// representation change: across every mode, candidate policy and worker
// count, Recommend must return rankings bit-identical to the map-based
// reference pipeline — same ids, same fused scores, same component
// relevances, same order.
func TestDenseRecommendMatchesReference(t *testing.T) {
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
		{"social-only", func(o *Options) { o.Mode = ModeSARHash; o.SocialOnly = true }},
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
				got := v.Recommend(q, topK, id)
				want := referenceRecommend(v, q, topK, id)
				if !resultsEqual(got, want) {
					t.Fatalf("query %s: dense pipeline diverged from reference\ndense:     %+v\nreference: %+v", id, got, want)
				}
				if len(got) == 0 {
					t.Fatalf("query %s returned no results", id)
				}
			}
		})
	}
}

// gatherSet runs the production gather and returns the merged candidate list
// as a string set.
func gatherSet(t *testing.T, v *View, q Query, exclude ...string) map[string]bool {
	t.Helper()
	qs := v.getScratch()
	defer v.putScratch(qs)
	v.resolveExcludes(qs, exclude)
	if _, _, err := v.gather(q, qs); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, i := range qs.merged {
		out[v.intern.ids[i]] = true
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestGatherMatchesReferenceUnderMutation is the candidate-set property test:
// through removals, re-ingestion of a removed id (which revives its dense
// slot while its tombstone persists until compaction) and incremental updates
// (which can grow the inverted files), the dense k-way-merge gather must
// return exactly the candidate set of the map-based reference — including
// exclusion handling.
func TestGatherMatchesReferenceUnderMutation(t *testing.T) {
	r, c := buildSmall(t, ModeSARHash)

	check := func(stage string) {
		v := r.Freeze()
		ids := v.SortedIDs()
		probe := ids
		if len(probe) > 6 {
			probe = probe[:6]
		}
		for _, id := range probe {
			q, ok := v.QueryFor(id)
			if !ok {
				t.Fatalf("%s: missing record %s", stage, id)
			}
			got := gatherSet(t, v, q, id)
			want := referenceCandidates(v, q, id)
			if !sameSet(got, want) {
				t.Fatalf("%s: query %s gather set diverged\ndense:     %d candidates\nreference: %d candidates", stage, id, len(got), len(want))
			}
			// And with no exclusions at all.
			got = gatherSet(t, v, q)
			want = referenceCandidates(v, q)
			if !sameSet(got, want) {
				t.Fatalf("%s: query %s (no exclude) gather set diverged", stage, id)
			}
		}
	}

	check("fresh build")

	// Remove a few videos: postings vanish immediately, tombstones filter the
	// stale LSB entries.
	all := r.SortedIDs()
	removed := []string{all[1], all[3], all[5]}
	for _, id := range removed {
		if !r.RemoveVideo(id) {
			t.Fatalf("RemoveVideo(%s) = false", id)
		}
	}
	check("after removals")

	// Re-ingest one removed id: it reclaims its dense slot; the tombstone
	// stays until the next BuildSocial, so only its fresh inverted postings
	// (added on the next build) make it a candidate.
	rec0, _ := r.Record(all[0])
	r.IngestSeries(removed[0], rec0.Series, social.NewDescriptor("revived-owner", c.Users[0], c.Users[1]))
	r.BuildSocial()
	check("after re-ingest and rebuild")

	// Incremental updates touch dimensions and can mint new ones (growing
	// the inverted files).
	target := r.SortedIDs()[0]
	r.ApplyUpdates(map[string][]string{
		target: {"new-user-a", "new-user-b", c.Users[2]},
	})
	check("after ApplyUpdates")
}

// TestGatherCandidatesZeroAlloc pins warm-path candidate gathering — query
// vectorization, posting-list union, social top-K selection, the LCP walk
// and the merged-list build — to zero allocations per query.
func TestGatherCandidatesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	v := buildGolden(t, nil)
	ids := v.SortedIDs()
	q, ok := v.QueryFor(ids[0])
	if !ok {
		t.Fatal("missing record")
	}
	ctx := context.Background()
	// Warm the pooled scratch to its high-water mark across several queries.
	for _, id := range ids {
		wq, _ := v.QueryFor(id)
		if _, err := v.GatherCandidates(ctx, wq, id); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := v.GatherCandidates(ctx, q, ids[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("GatherCandidates allocates %.1f/op warm, want 0", allocs)
	}
}

// TestInternSharedAcrossClones verifies the copy-on-write id table: clones
// share the intern table until a genuinely new id is minted, published views
// keep their table intact, and re-ingesting known ids never copies.
func TestInternSharedAcrossClones(t *testing.T) {
	r, _ := buildSmall(t, ModeSARHash)
	v1 := r.Freeze()
	tab := v1.intern

	// Mutation that mints nothing: table stays shared.
	target := r.SortedIDs()[0]
	rec, _ := r.Record(target)
	r.IngestSeries(target, rec.Series, rec.Desc)
	if r.state.intern != tab {
		t.Error("re-ingesting a known id copied the intern table")
	}

	// Minting a new id copies the table; the published view keeps the old one.
	v2 := r.Freeze()
	r.IngestSeries("brand-new-video", rec.Series, rec.Desc)
	if r.state.intern == tab {
		t.Error("minting a new id did not copy the shared intern table")
	}
	if v1.intern != tab || v2.intern != tab {
		t.Error("published views lost their intern table")
	}
	if _, ok := v1.intern.idx["brand-new-video"]; ok {
		t.Error("new id leaked into the frozen view's table")
	}
	if i, ok := r.state.intern.idx[target]; !ok || r.state.intern.ids[i] != target {
		t.Error("copied table lost an existing id")
	}
}

// TestDenseIndexStableAcrossRemoveReingest verifies index stability: a
// removed id reclaims the same dense slot on re-ingest.
func TestDenseIndexStableAcrossRemoveReingest(t *testing.T) {
	r, _ := buildSmall(t, ModeSARHash)
	id := r.SortedIDs()[2]
	before, ok := r.state.intern.idx[id]
	if !ok {
		t.Fatal("id not interned")
	}
	rec, _ := r.Record(id)
	series, desc := rec.Series, rec.Desc
	if !r.RemoveVideo(id) {
		t.Fatal("remove failed")
	}
	if r.state.recs[before] != nil {
		t.Fatal("dense slot not cleared on removal")
	}
	r.IngestSeries(id, series, desc)
	after := r.state.intern.idx[id]
	if after != before {
		t.Errorf("dense index changed across remove/re-ingest: %d -> %d", before, after)
	}
	if r.state.recs[after] == nil {
		t.Error("dense slot not repopulated")
	}
}

// TestVideosPerDimMatchesPostings cross-checks the posting-list-length report
// against a recount from the records themselves.
func TestVideosPerDimMatchesPostings(t *testing.T) {
	v := buildGolden(t, nil)
	got := v.VideosPerDim()
	want := make([]int, v.part.Dim)
	for _, rec := range v.recs {
		if rec == nil {
			continue
		}
		for d, x := range rec.Vec {
			if x > 0 && d < len(want) {
				want[d]++
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("VideosPerDim len = %d, want %d", len(got), len(want))
	}
	for d := range got {
		if got[d] != want[d] {
			t.Errorf("dim %d: VideosPerDim = %d, recount = %d", d, got[d], want[d])
		}
	}
}

func BenchmarkGatherCandidates(b *testing.B) {
	for _, mode := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"social", func(o *Options) { o.SocialOnly = true }},
		{"content", func(o *Options) { o.ContentWeightOnly = true }},
		{"fused", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			v := buildGolden(b, mode.mutate)
			q, _ := v.QueryFor(v.SortedIDs()[0])
			ctx := context.Background()
			if _, err := v.GatherCandidates(ctx, q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.GatherCandidates(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
