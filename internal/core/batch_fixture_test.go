package core

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"testing"

	"videorec/internal/index"
	"videorec/internal/social"
)

// TestBatchRankingFixture pins the answers of View.RecommendBatch against a
// checked-in fixture. The same-commit goldens (TestBatchGolden and friends)
// prove batched ≡ serial within one build; this test proves the current
// build answers exactly as the build that generated the file, so a rewrite
// of the query pipeline can show bit-identity across commits.
//
// Every batchVariants mode is covered, plus a binding-budget variant whose
// CandidateLimit and ContentProbe are small enough that the social top-L
// truncation and the 2×CandidateLimit content cap both fire; the fixture
// records each query's budget funnel and the test asserts both budgets bind
// for at least one query.
//
// Everything hashed is exact: float64 bits of every score, the degraded flag
// and the candidate count, so one ULP of drift fails the test.
//
// Regenerate (only when an intentional behavior change is being made):
//
//	REGEN_BATCH_FIXTURE=1 go test ./internal/core/ -run BatchRankingFixture
const batchFixturePath = "testdata/batch_rankings.json"

// batchFixtureQueries is how many stored clips each variant queries.
const batchFixtureQueries = 16

// bindingBudget is the binding-budget variant's options hook.
func bindingBudget(o *Options) {
	o.Mode = ModeSARHash
	o.CandidateLimit = 3
	o.ContentProbe = 24
}

// batchFunnel is one query's budget funnel under the binding-budget variant,
// computed by an independent reference walk of steps 1–2.
type batchFunnel struct {
	Query        string `json:"query"`
	Union        int    `json:"union"`        // social candidates before the top-L cut
	SocialKept   int    `json:"socialKept"`   // min(Union, CandidateLimit)
	ContentAdded int    `json:"contentAdded"` // candidates the LCP walk added
}

type batchFixture struct {
	Variants map[string][]string `json:"variants"` // variant → per query "id:fnv64a(answer)"
	Funnel   []batchFunnel       `json:"funnel"`   // binding-budget variant only
}

// batchAnswerHashes runs one RecommendBatch over the first n stored clips
// (each excluding itself) and hashes every answer.
func batchAnswerHashes(t *testing.T, v *View, n int) ([]string, []BatchOut) {
	t.Helper()
	ids := goldenQueries(t, v, n)
	items := make([]BatchItem, len(ids))
	for i, id := range ids {
		q, ok := v.QueryFor(id)
		if !ok {
			t.Fatalf("missing record %s", id)
		}
		items[i] = BatchItem{Query: q, TopK: 10, Exclude: []string{id}}
	}
	outs := v.RecommendBatch(context.Background(), items)
	hashes := make([]string, len(ids))
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("query %s: %v", ids[i], out.Err)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "degraded=%v candidates=%d\n", out.Info.Degraded, out.Info.Candidates)
		for _, r := range out.Results {
			fmt.Fprintf(h, "%s:%016x:%016x:%016x\n", r.VideoID,
				math.Float64bits(r.Score), math.Float64bits(r.Content), math.Float64bits(r.Social))
		}
		hashes[i] = fmt.Sprintf("%s:%016x", ids[i], h.Sum64())
	}
	return hashes, outs
}

// referenceFunnel recomputes steps 1–2 of one query from the index
// structures alone: the s̃J-ranked social union cut to CandidateLimit under
// (s̃J desc, id asc), then the LCP content walk skipping tombstones and
// already-gathered videos until ContentProbe pops or 2×CandidateLimit
// additions. It returns the funnel and the number of gathered candidates
// that survive the query's self-exclusion.
func referenceFunnel(v *View, id string) (batchFunnel, int) {
	q, _ := v.QueryFor(id)
	self := v.intern.idx[id]
	qvec := social.VectorizeInto(nil, q.Desc, v.look, v.part.Dim)
	var us index.UnionScratch
	union := append([]uint32(nil), v.inv.Union(qvec, &us)...)
	score := func(i uint32) float64 { return social.ApproxJaccard(qvec, v.recs[i].Vec) }
	sort.Slice(union, func(a, b int) bool {
		sa, sb := score(union[a]), score(union[b])
		if sa != sb {
			return sa > sb
		}
		return v.intern.ids[union[a]] < v.intern.ids[union[b]]
	})
	f := batchFunnel{Query: id, Union: len(union)}
	kept := union
	if len(kept) > v.opts.CandidateLimit {
		kept = kept[:v.opts.CandidateLimit]
	}
	f.SocialKept = len(kept)
	gathered := make(map[uint32]bool, len(kept))
	for _, i := range kept {
		gathered[i] = true
	}
	var w index.Walker
	w.Reset(v.lsb, q.Series)
	for pops := 0; pops < v.opts.ContentProbe; pops++ {
		e, _, ok := w.Next()
		if !ok {
			break
		}
		if v.tombstones.Has(e.Video) || gathered[e.Video] {
			continue
		}
		gathered[e.Video] = true
		f.ContentAdded++
		if f.ContentAdded >= 2*v.opts.CandidateLimit {
			break
		}
	}
	cands := len(gathered)
	if gathered[self] {
		cands--
	}
	return f, cands
}

func TestBatchRankingFixture(t *testing.T) {
	got := batchFixture{Variants: map[string][]string{}}
	for _, tc := range batchVariants {
		v := buildGolden(t, tc.mutate)
		got.Variants[tc.name], _ = batchAnswerHashes(t, v, batchFixtureQueries)
	}
	v := buildGolden(t, bindingBudget)
	var outs []BatchOut
	got.Variants["binding-budget"], outs = batchAnswerHashes(t, v, batchFixtureQueries)
	truncated, capped := 0, 0
	for i, id := range goldenQueries(t, v, batchFixtureQueries) {
		f, cands := referenceFunnel(v, id)
		if cands != outs[i].Info.Candidates {
			t.Fatalf("binding-budget %s: reference funnel gathers %d candidates, batch answer reports %d",
				id, cands, outs[i].Info.Candidates)
		}
		if f.Union > v.opts.CandidateLimit {
			truncated++
		}
		if f.ContentAdded == 2*v.opts.CandidateLimit {
			capped++
		}
		got.Funnel = append(got.Funnel, f)
	}
	if truncated == 0 || capped == 0 {
		t.Fatalf("binding-budget variant does not bind: %d queries truncate the social top-L, %d hit the content cap; both must be ≥1",
			truncated, capped)
	}

	if os.Getenv("REGEN_BATCH_FIXTURE") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(batchFixturePath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", batchFixturePath)
		return
	}

	raw, err := os.ReadFile(batchFixturePath)
	if err != nil {
		t.Fatalf("read fixture: %v (regenerate with REGEN_BATCH_FIXTURE=1)", err)
	}
	var want batchFixture
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Variants) != len(got.Variants) {
		t.Fatalf("fixture has %d variants, test runs %d", len(want.Variants), len(got.Variants))
	}
	for name, hashes := range got.Variants {
		w := want.Variants[name]
		if len(w) != len(hashes) {
			t.Fatalf("%s: fixture has %d queries, got %d", name, len(w), len(hashes))
		}
		for i := range hashes {
			if hashes[i] != w[i] {
				t.Errorf("%s: answer %d = %s, fixture %s", name, i, hashes[i], w[i])
			}
		}
	}
	if len(want.Funnel) != len(got.Funnel) {
		t.Fatalf("fixture has %d funnel rows, got %d", len(want.Funnel), len(got.Funnel))
	}
	for i := range got.Funnel {
		if got.Funnel[i] != want.Funnel[i] {
			t.Errorf("binding-budget funnel %d = %+v, fixture %+v", i, got.Funnel[i], want.Funnel[i])
		}
	}
}
