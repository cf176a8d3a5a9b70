package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"videorec"
	"videorec/internal/server"
)

// op is one request: a read of clip ID, or (when ID is empty) the update
// batch Batch of the comment replay.
type op struct {
	Due   time.Duration // send time relative to the phase start (open loop)
	ID    string
	Batch int
}

// outcome is what one request got back.
type outcome struct {
	op
	Sent, Done time.Duration // relative to the phase start
	Status     int           // 0 on a transport error
	Err        string        // transport error or output-check violation
	Degraded   bool
	Version    uint64
	Results    []videorec.Recommendation
}

func (o *outcome) failed() bool { return o.Status != http.StatusOK || o.Err != "" }

// latency is the request's latency from when it was due.
func (o *outcome) latency() time.Duration { return o.Done - o.Due }

// popularity draws clip ids: uniformly, or by Zipf(s) over a ranking of the
// corpus. The ranking is fixed by the corpus seed — which clips are popular
// is a property of the community — and the workload seed drives the draws.
type popularity struct {
	ids  []string
	zipf *rand.Zipf
	rng  *rand.Rand
}

func newPopularity(ids []string, zipfS float64, rng *rand.Rand) *popularity {
	p := &popularity{ids: slices.Clone(ids), rng: rng}
	rank := rand.New(rand.NewSource(corpusSeed))
	rank.Shuffle(len(p.ids), func(i, j int) { p.ids[i], p.ids[j] = p.ids[j], p.ids[i] })
	if zipfS > 0 {
		p.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(ids)-1))
	}
	return p
}

func (p *popularity) next() string {
	if p.zipf != nil {
		return p.ids[p.zipf.Uint64()]
	}
	return p.ids[p.rng.Intn(len(p.ids))]
}

// client sends the benchmark's requests over at most conns connections and
// checks every answer.
type client struct {
	http    *http.Client
	url     string
	corpus  map[string]bool
	updates [][]byte // encoded update batches
}

func newClient(url string, conns int, corpus map[string]bool, updates [][]byte) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{
		http:    &http.Client{Transport: tr, Timeout: 30 * time.Second},
		url:     url,
		corpus:  corpus,
		updates: updates,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and fills in everything but the timings.
func (c *client) do(o *outcome) {
	var resp *http.Response
	var err error
	if o.ID != "" {
		resp, err = c.http.Get(c.url + "/recommend?k=" + fmt.Sprint(topK) + "&id=" + url.QueryEscape(o.ID))
	} else {
		resp, err = c.http.Post(c.url+"/updates", "application/json", bytes.NewReader(c.updates[o.Batch%len(c.updates)]))
	}
	if err != nil {
		o.Err = err.Error()
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	o.Status = resp.StatusCode
	if err != nil {
		o.Err = err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.Err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	if o.ID == "" {
		var sum videorec.UpdateSummary
		if err := json.Unmarshal(body, &sum); err != nil {
			o.Err = "decode update summary: " + err.Error()
		}
		return
	}
	var rr server.RecommendResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		o.Err = "decode answer: " + err.Error()
		return
	}
	o.Degraded, o.Version, o.Results = rr.Degraded, rr.ViewVersion, rr.Results
	if err := checkAnswer(o.ID, rr.Results, c.corpus); err != nil {
		o.Err = err.Error()
	}
}

// checkAnswer enforces the answer contract: at most k results, never the
// query clip, only ids of the corpus, each once, ordered by score desc then
// id asc.
func checkAnswer(id string, recs []videorec.Recommendation, corpus map[string]bool) error {
	if len(recs) > topK {
		return fmt.Errorf("check %s: %d results for k=%d", id, len(recs), topK)
	}
	seen := map[string]bool{}
	for i, r := range recs {
		switch {
		case r.VideoID == id:
			return fmt.Errorf("check %s: answer holds the query clip", id)
		case !corpus[r.VideoID]:
			return fmt.Errorf("check %s: unknown id %q", id, r.VideoID)
		case seen[r.VideoID]:
			return fmt.Errorf("check %s: %q listed twice", id, r.VideoID)
		}
		seen[r.VideoID] = true
		if i > 0 {
			p := recs[i-1]
			if p.Score < r.Score || (p.Score == r.Score && p.VideoID > r.VideoID) {
				return fmt.Errorf("check %s: results %d and %d out of order", id, i-1, i)
			}
		}
	}
	return nil
}

// runner replays a stream of reads with conns workers.
type runner struct {
	c     *client
	conns int
}

// openLoop sends each op at its due time (or as soon as a worker is free
// after it) and returns the outcomes in stream order.
func (r runner) openLoop(ops []op) []outcome {
	start := time.Now()
	return r.run(ops, start, func(o *outcome) {
		if d := o.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
	}, func() bool { return false })
}

// closedLoop sends ops back to back from every worker until d has passed,
// and returns the outcomes of the ops it sent, in stream order.
func (r runner) closedLoop(ops []op, d time.Duration) []outcome {
	start := time.Now()
	return r.run(ops, start, func(o *outcome) { o.Due = time.Since(start) },
		func() bool { return time.Since(start) >= d })
}

// run is the worker pool behind both loops: wait runs before each send,
// and stop, once true, ends the run. It returns the outcomes of the ops
// that were sent, in stream order.
func (r runner) run(ops []op, start time.Time, wait func(*outcome), stop func() bool) []outcome {
	out := make([]outcome, len(ops))
	for i := range ops {
		out[i].op = ops[i]
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(out) || stop() {
					return
				}
				o := &out[i]
				wait(o)
				o.Sent = time.Since(start)
				r.c.do(o)
				o.Done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	sent := out[:0]
	for _, o := range out {
		if o.Done != 0 {
			sent = append(sent, o)
		}
	}
	return sent
}
