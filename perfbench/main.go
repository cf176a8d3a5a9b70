// Command perfbench is the repository's benchmark. It serves the seed-fixed
// 200-hour synthetic community (1,714 clips) from a server process wired
// like cmd/vrecd with its default flags plus a journal, drives it over HTTP
// with one of two read workloads, checks every answer, and prints one JSON
// result line.
//
//	bash perfbench/run.sh --workload tail-reads --seed 1 --seconds 40 --trace 0
//
// A run sets the server up three times, reads the 512 most popular clips to
// fill the result cache, then sends the workload's reads open loop at a
// fixed rate, the same stream closed loop from two connections, and finally
// 200 update batches one at a time. With --trace 0 it reports the
// end-to-end metrics: set-up time, open-loop read latency and SLO share,
// closed-loop throughput, server CPU per request, update latency, recall@10
// against exact CSF, the share of operations that succeeded, and peak
// server memory. With --trace 1 it runs the open loop briefly for the
// server's own counters, then times each layer's public functions from this
// process on the same corpus and request stream, records a span per call,
// and reports the per-layer metrics; the spans and a summary are written
// under .bench_build/trace.
//
// The full report — build and host stamp, input properties of the stream,
// generator lateness, verification — goes to standard error and to
// .bench_build/reports. Rendering and signature extraction of the corpus
// are input generation: a separate process does them once per build of
// this program and caches them under .bench_build, with the exact-CSF
// reference rankings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name  string
	zipfS float64 // popularity skew; 0 draws clips uniformly
	rate  float64 // open-loop reads per second
}

// The open-loop rates are frozen, and reads are due at even intervals. On
// the 2-CPU host shared with other tenants that the benchmark was written
// on, Poisson arrivals and rates near half the closed-loop throughput made
// the tail percentiles follow the host's noise rather than the server's
// work. tail-reads runs at about a third of its closed-loop throughput
// there at the commit that added this benchmark (210/s), head-reads at
// about a tenth of its own (1,150/s).
var workloads = []workload{
	{name: "tail-reads", rate: 64},
	{name: "head-reads", zipfS: 1.2, rate: 120},
}

const (
	buildDir    = ".bench_build"
	warmReads   = 512                  // the most popular clips, read before timing starts to fill the result cache
	probeWrites = 200                  // update batches after the reads
	probeThink  = 5 * time.Millisecond // pause before each of them
	verifyN     = 100                  // answers recomputed in process
	setups      = 3                    // server set-ups per run; setup_s is their median
	openShare   = 0.8                  // share of the measured seconds spent in the open loop
	tailWindows = 8                    // stretches of the open loop read_p95_ms is the median over
	sloLatency  = 50 * time.Millisecond
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: tail-reads or head-reads")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 40, "measured seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")

		serveMode   = flag.Bool("serve", false, "run as the server process")
		prepareMode = flag.Bool("prepare", false, "build the corpus and reference caches")
		corpus      = flag.String("corpus", "", "server: prepared corpus file")
		journal     = flag.String("journal", "", "server: journal path")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	switch {
	case *serveMode:
		if err := serve(*corpus, *journal); err != nil {
			log.Fatal(err)
		}
		return
	case *prepareMode:
		key, err := buildKey()
		if err == nil {
			err = prepare(buildDir, key)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		log.Fatalf("usage: perfbench --workload tail-reads|head-reads --seed N --seconds S --trace 0|1")
	}
	res, err := run(workloads[i], *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		log.Fatal(err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts outcomes as attempted and failed operations, keeping the
// first few failures for the report. An answer that arrived but failed the
// output check makes the run incorrect.
func (res *result) tally(rep *report, outs []outcome) {
	for _, o := range outs {
		res.Attempted++
		if !o.failed() {
			continue
		}
		res.Failed++
		if len(rep.Failures) < 5 {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%q batch %d: %s", o.ID, o.Batch, o.Err))
		}
		if o.Status == http.StatusOK {
			res.Correct = false
		}
	}
}

// report is everything a run knows.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	Stamp        map[string]any     `json:"stamp"`
	Inputs       map[string]float64 `json:"inputs"`
	Lateness     map[string]float64 `json:"lateness_ms,omitempty"`
	ReadTail     map[string]float64 `json:"read_tail,omitempty"`
	SetupsS      []float64          `json:"setups_s,omitempty"`
	Verification *verification      `json:"verification,omitempty"`
	Failures     []string           `json:"failures,omitempty"`
	Invalid      string             `json:"invalid,omitempty"` // why the run reports no result
	Result       result             `json:"result"`
}

// env is what every run shares: the corpus, its file and the build key.
type env struct {
	dir, exe, key, corpusPath string
	corpus                    *Corpus
	exact                     map[string][]string // exact-CSF top-k per clip
	ids                       []string
	inCorpus                  map[string]bool
	batches                   []map[string][]string
	encoded                   [][]byte
	tmp                       string // per-run scratch directory
}

func setup() (*env, error) {
	dir, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	if e.exe, err = os.Executable(); err != nil {
		return nil, err
	}
	if e.key, err = buildKey(); err != nil {
		return nil, err
	}
	e.corpusPath = gobPath(dir, "corpus", e.key)
	exactPath := gobPath(dir, "exact", e.key)
	if _, err := os.Stat(exactPath); err != nil {
		cmd := exec.Command(e.exe, "-prepare")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("prepare corpus: %w", err)
		}
	}
	if err := readGob(e.corpusPath, &e.corpus); err != nil {
		return nil, err
	}
	if err := readGob(exactPath, &e.exact); err != nil {
		return nil, err
	}
	e.ids = e.corpus.IDs()
	e.inCorpus = make(map[string]bool, len(e.ids))
	for _, id := range e.ids {
		e.inCorpus[id] = true
	}
	e.batches = e.corpus.UpdateBatches(updateBatch)
	for _, b := range e.batches {
		body, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		e.encoded = append(e.encoded, body)
	}
	if e.tmp, err = os.MkdirTemp(dir, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// streams generates a workload's reads from the seed: the warm-up, the
// open-loop schedule and the closed-loop continuation of the same stream.
type streams struct {
	warm, open, closed []op
}

// makeStreams schedules the open loop's reads evenly at the workload's
// rate; the seed draws which clips are read.
func makeStreams(w workload, e *env, seed int64, openFor, closedFor time.Duration) streams {
	pop := newPopularity(e.ids, w.zipfS, rand.New(rand.NewSource(seed)))
	var s streams
	for i := warmReads - 1; i >= 0; i-- { // the most popular clip last, so the cache keeps the head
		s.warm = append(s.warm, op{ID: pop.ids[i]})
	}
	for i := range int(math.Round(w.rate * openFor.Seconds())) {
		due := time.Duration((float64(i) + 0.5) / w.rate * float64(time.Second))
		s.open = append(s.open, op{Due: due, ID: pop.next()})
	}
	// Enough reads for the fastest closed loop this host could run.
	for range int(closedFor.Seconds() * 5000) {
		s.closed = append(s.closed, op{ID: pop.next()})
	}
	return s
}

// inputProps are the stream's own properties, computed from the generated
// requests alone.
func inputProps(w workload, e *env, s streams) map[string]float64 {
	var warm, reads []string
	for _, o := range s.warm {
		warm = append(warm, o.ID)
	}
	for _, o := range s.open {
		reads = append(reads, o.ID)
	}
	return map[string]float64{
		"corpus_clips":        float64(len(e.ids)),
		"lru512_hit_share":    lruHitShare(warm, reads, 512),
		"unique_share_per_64": uniqueShare(reads, 64),
		"comments_per_batch":  float64(len(e.corpus.Comments)) / float64(len(e.batches)),
		"open_reads":          float64(len(reads)),
		"open_read_rate":      w.rate,
	}
}

func run(w workload, seed int64, d time.Duration, traced bool) (result, error) {
	e, err := setup()
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.tmp)
	rep := report{Workload: w.name, Seed: seed, Trace: traced, Stamp: stamp(e, seed)}
	var res result
	if traced {
		res, err = runTraced(w, e, seed, d, &rep)
	} else {
		res, err = runEndToEnd(w, e, seed, d, &rep)
	}
	if err != nil {
		return res, err
	}
	rep.Result = res
	if err := writeReport(e, &rep); err != nil {
		return res, err
	}
	if rep.Invalid != "" {
		return res, fmt.Errorf("invalid run, no result: %s", rep.Invalid)
	}
	return res, nil
}

// writeReport prints the report to standard error and files it under
// .bench_build/reports.
func writeReport(e *env, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, string(b))
	dir := filepath.Join(e.dir, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", rep.Workload, rep.Seed, rep.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// startSUT starts one server process with a fresh journal.
func startSUT(e *env, n int) (*serverProc, error) {
	return startServer(e.exe, e.corpusPath, filepath.Join(e.tmp, fmt.Sprintf("journal-%d", n)))
}

func runEndToEnd(w workload, e *env, seed int64, d time.Duration, rep *report) (result, error) {
	openFor := time.Duration(float64(d) * openShare)
	closedFor := d - openFor
	s := makeStreams(w, e, seed, openFor, closedFor)
	rep.Inputs = inputProps(w, e, s)

	// Set up several times; the last server serves the workload.
	var srv *serverProc
	var err error
	for n := range setups {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return result{}, fmt.Errorf("stop server: %w", err)
			}
		}
		if srv, err = startSUT(e, n); err != nil {
			return result{}, err
		}
		rep.SetupsS = append(rep.SetupsS, srv.setup.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	c := newClient(srv.url, runtime.NumCPU(), e.inCorpus, e.encoded)
	defer c.close()
	r := runner{c: c, conns: runtime.NumCPU()}
	warm := r.closedLoop(s.warm, time.Hour)
	cpu0, err := srv.cpu()
	if err != nil {
		return result{}, err
	}
	open := r.openLoop(s.open)
	cpu1, err := srv.cpu()
	if err != nil {
		return result{}, err
	}
	closed := r.closedLoop(s.closed, closedFor)
	probe := writeProbe(c)
	rss, err := srv.peakRSS()
	if err != nil {
		return result{}, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return result{}, fmt.Errorf("stop server: %w", err)
	}

	// Every answer was checked on arrival; a seeded sample is recomputed in
	// process, and recall is taken over every distinct clip read.
	reads := slices.Concat(warm, open, closed)
	sample := sampleAnswers(slices.Concat(open, closed), verifyN, rand.New(rand.NewSource(seed)))
	ver, err := verify(e.corpus, sample)
	if err != nil {
		return result{}, err
	}
	rep.Verification = &ver
	recall, recallN := meanRecall(reads, e.exact)
	rep.Inputs["recall_clips"] = float64(recallN)

	// Lateness of the open-loop generator, and whether it grew.
	var late, readLat, updLat []float64
	sloMet := 0
	for _, o := range open {
		late = append(late, ms(o.Sent-o.Due))
		readLat = append(readLat, ms(o.latency()))
		if !o.failed() && !o.Degraded && o.latency() <= sloLatency {
			sloMet++
		}
	}
	q := len(late) / 4
	first, last := quantile(slices.Clone(late[:q]), 0.9), quantile(slices.Clone(late[len(late)-q:]), 0.9)
	rep.Lateness = map[string]float64{
		"p50": quantile(slices.Clone(late), 0.5), "p99": quantile(slices.Clone(late), 0.99),
		"first_quarter_p90": first, "last_quarter_p90": last,
	}
	// The tail metric is p95 in each of tailWindows consecutive stretches
	// of the open loop, and their median. On the shared 2-CPU host the
	// benchmark was written on, a neighbour taking a core for some seconds
	// doubles the latency of a read (refinement runs on both cores), and
	// p99 over the whole run spread by a quarter to a third of its median
	// between runs; the windowed p95 ignores such stretches while they
	// cover fewer than half the windows. The whole-run p95 and p99, and the
	// highest percentile with at least ten samples beyond it, are reported.
	var windowP95 []float64
	for i := range tailWindows {
		lo, hi := i*len(readLat)/tailWindows, (i+1)*len(readLat)/tailWindows
		windowP95 = append(windowP95, quantile(slices.Clone(readLat[lo:hi]), 0.95))
	}
	rep.ReadTail = map[string]float64{
		"samples":           float64(len(readLat)),
		"run_p95_ms":        quantile(slices.Clone(readLat), 0.95),
		"run_p99_ms":        quantile(slices.Clone(readLat), 0.99),
		"beyond_run_p99":    math.Floor(0.01 * float64(len(readLat))),
		"window_samples":    float64(len(readLat) / tailWindows),
		"beyond_window_p95": math.Floor(0.05 * float64(len(readLat)/tailWindows)),
	}
	for _, o := range probe {
		updLat = append(updLat, ms(o.latency()))
	}
	closedOK := 0
	var closedSpan time.Duration
	for _, o := range closed {
		if !o.failed() {
			closedOK++
		}
		closedSpan = max(closedSpan, o.Done)
	}
	answered := 0
	for _, o := range open {
		if !o.failed() {
			answered++
		}
	}

	res := result{Correct: ver.Mismatched == 0}
	res.tally(rep, slices.Concat(reads, probe))
	switch {
	case len(readLat) < 200*tailWindows || len(updLat) < 200: // ten samples beyond each window's p95 and the updates' p95
		rep.Invalid = fmt.Sprintf("too few samples for the reported percentiles: %d reads, %d updates", len(readLat), len(updLat))
	case last > 20 && last > 3*(first+1):
		rep.Invalid = fmt.Sprintf("open-loop generator fell behind: lateness p90 grew from %.2f ms to %.2f ms", first, last)
	}
	res.Metrics = map[string]metric{
		"setup_s":        {median(rep.SetupsS), "s"},
		"read_p50_ms":    {quantile(slices.Clone(readLat), 0.5), "ms"},
		"read_p95_ms":    {median(windowP95), "ms"},
		"read_slo_share": {float64(sloMet) / float64(len(readLat)), "ratio"},
		"saturated_qps":  {float64(closedOK) / closedSpan.Seconds(), "1/s"},
		"cpu_ms_per_req": {ms(cpu1-cpu0) / float64(max(answered, 1)), "ms"},
		"update_p50_ms":  {quantile(slices.Clone(updLat), 0.5), "ms"},
		"update_p95_ms":  {quantile(slices.Clone(updLat), 0.95), "ms"},
		"recall_at_10":   {recall, "ratio"},
		"ok_share":       {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
		"peak_rss_mb":    {rss, "MiB"},
	}
	return res, nil
}

// writeProbe posts the first update batches one at a time, pausing before
// each: the write latency of a server no read competes with.
func writeProbe(c *client) []outcome {
	out := make([]outcome, probeWrites)
	start := time.Now()
	for i := range out {
		time.Sleep(probeThink)
		o := &out[i]
		o.Batch = i
		o.Due = time.Since(start)
		o.Sent = o.Due
		c.do(o)
		o.Done = time.Since(start)
	}
	return out
}

// stamp identifies the build and host a report came from.
func stamp(e *env, seed int64) map[string]any {
	return map[string]any{
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"seed":         seed,
		"corpus_seed":  corpusSeed,
		"corpus_hours": corpusHours,
		"corpus_users": corpusUsers,
		"corpus_clips": len(e.ids),
		"commit":       commit(),
		"build_key":    e.key,
		"time":         time.Now().UTC().Format(time.RFC3339),
	}
}

// commit reads the checked-out commit from .git when the working directory
// is a git checkout, and returns "unknown" otherwise.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
