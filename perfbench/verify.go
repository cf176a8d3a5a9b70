package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"videorec"
	"videorec/internal/core"
)

// newEngine builds, in this process, the engine the server process builds:
// same options, same ingestion order, so view versions match.
func newEngine(c *Corpus) (*videorec.Engine, error) {
	eng := videorec.New(videorec.Options{})
	for i := range c.Clips {
		if err := eng.AddPrepared(c.Clips[i].Prepared()); err != nil {
			return nil, fmt.Errorf("ingest %s: %w", c.Clips[i].ID, err)
		}
	}
	eng.Build()
	return eng, nil
}

// exactTopK ranks every clip of the corpus with the paper's unoptimised
// CSF — exact social Jaccard and a full scan of the collection, under the
// served engine's other options. It is the reference recall_at_10 compares
// served answers against.
func exactTopK(c *Corpus) (map[string][]string, error) {
	o := core.DefaultOptions()
	o.Mode = core.ModeExact
	o.FullScan = true
	r := core.NewRecommender(o)
	for i := range c.Clips {
		p := c.Clips[i].Prepared()
		r.IngestSeries(p.ID, p.Series, p.Desc)
	}
	r.BuildSocial()
	v := r.Freeze()
	ref := make(map[string][]string, len(c.Clips))
	for i := range c.Clips {
		id := c.Clips[i].ID
		res, _, err := v.RecommendIDCtx(context.Background(), id, topK)
		if err != nil {
			return nil, fmt.Errorf("exact %s: %w", id, err)
		}
		ref[id] = resultIDs(res)
	}
	return ref, nil
}

func resultIDs(res []core.Result) []string {
	ids := make([]string, len(res))
	for i, r := range res {
		ids[i] = r.VideoID
	}
	return ids
}

// recall is the share of the reference ids the served answer holds.
func recall(served []videorec.Recommendation, ref []string) float64 {
	if len(ref) == 0 {
		return 1
	}
	in := map[string]bool{}
	for _, r := range served {
		in[r.VideoID] = true
	}
	n := 0
	for _, id := range ref {
		if in[id] {
			n++
		}
	}
	return float64(n) / float64(len(ref))
}

// verification is what the verifier found.
type verification struct {
	Checked    int      `json:"checked"`    // sampled answers recomputed in process
	Mismatched int      `json:"mismatched"` // of those, answers that differ
	Errors     []string `json:"errors,omitempty"`
}

// sampleAnswers picks a seeded sample of at most n checked, non-degraded
// answers.
func sampleAnswers(outs []outcome, n int, rng *rand.Rand) []*outcome {
	var pool []*outcome
	for i := range outs {
		if o := &outs[i]; !o.failed() && !o.Degraded {
			pool = append(pool, o)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(n, len(pool))]
}

// verify recomputes the sampled answers in process, on an engine built as
// the server builds its own: at the same view version, each must equal the
// served answer exactly.
func verify(c *Corpus, sample []*outcome) (verification, error) {
	var v verification
	eng, err := newEngine(c)
	if err != nil {
		return v, err
	}
	for _, o := range sample {
		want, meta, err := eng.RecommendCtx(context.Background(), o.ID, topK)
		if err != nil {
			return v, fmt.Errorf("recompute %s: %w", o.ID, err)
		}
		v.Checked++
		// JSON round-trips float64 exactly, so every score bit must agree.
		if o.Version != meta.ViewVersion || meta.Degraded || !slices.Equal(o.Results, want) {
			v.Mismatched++
			if len(v.Errors) < 5 {
				v.Errors = append(v.Errors, fmt.Sprintf("%s: served %v at version %d, engine %v at version %d", o.ID, o.Results, o.Version, want, meta.ViewVersion))
			}
		}
	}
	return v, nil
}

// meanRecall averages recall@10 against the exact reference over the
// distinct clips answered.
func meanRecall(outs []outcome, ref map[string][]string) (float64, int) {
	var recalls []float64
	seen := map[string]bool{}
	for i := range outs {
		o := &outs[i]
		if o.failed() || o.Degraded || seen[o.ID] {
			continue
		}
		seen[o.ID] = true
		recalls = append(recalls, recall(o.Results, ref[o.ID]))
	}
	return mean(recalls), len(recalls)
}
