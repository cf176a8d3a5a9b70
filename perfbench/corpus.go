package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"videorec"
	"videorec/internal/dataset"
	"videorec/internal/signature"
	"videorec/internal/social"
)

// Corpus parameters: the paper's 200-hour collection at the dataset's
// default community size, generated from a fixed seed so every run of every
// workload serves the same clips. The workload seed only shapes traffic.
const (
	corpusSeed  = 11
	corpusHours = 200
	corpusUsers = 800
	topK        = 10
	updateBatch = 64 // comments per POST /updates batch
)

// Clip is one prepared clip: its extracted signature series and the
// source-period audience its social descriptor is built from.
type Clip struct {
	ID         string
	Series     signature.Series
	Owner      string
	Commenters []string
}

// Comment is one test-period comment, replayed by the update batches.
type Comment struct {
	Video, User string
}

// Corpus is everything the benchmark derives from the dataset: the prepared
// clips in ingestion order and the test-period comments in timeline order.
type Corpus struct {
	Clips    []Clip
	Comments []Comment
}

// Prepared returns the clip in the form Engine.AddPrepared ingests.
func (c *Clip) Prepared() videorec.PreparedClip {
	return videorec.PreparedClip{ID: c.ID, Series: c.Series, Desc: social.NewDescriptor(c.Owner, c.Commenters...)}
}

// IDs returns the clip ids in ingestion order.
func (c *Corpus) IDs() []string {
	ids := make([]string, len(c.Clips))
	for i := range c.Clips {
		ids[i] = c.Clips[i].ID
	}
	return ids
}

// UpdateBatches cuts the test-period comments into consecutive batches of n
// comments each, in the POST /updates body shape (video id → new users).
func (c *Corpus) UpdateBatches(n int) []map[string][]string {
	var out []map[string][]string
	for lo := 0; lo < len(c.Comments); lo += n {
		hi := min(lo+n, len(c.Comments))
		b := map[string][]string{}
		for _, cm := range c.Comments[lo:hi] {
			b[cm.Video] = append(b[cm.Video], cm.User)
		}
		out = append(out, b)
	}
	return out
}

// generateCorpus renders every clip of the collection and extracts its
// signature series — the expensive, input-generation half of ingest — with
// one worker per CPU.
func generateCorpus() *Corpus {
	o := dataset.DefaultOptions()
	o.Hours = corpusHours
	o.Users = corpusUsers
	o.Seed = corpusSeed
	col := dataset.Generate(o)
	sigOpts := signature.DefaultOptions()

	c := &Corpus{Clips: make([]Clip, len(col.Items))}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				it := col.Items[i]
				v := it.Render(o.Synth)
				series := signature.Extract(v, sigOpts)
				v.ReleaseFrames()
				var commenters []string
				for _, cm := range it.Comments {
					if cm.Month < o.MonthsSource {
						commenters = append(commenters, cm.User)
					}
				}
				c.Clips[i] = Clip{ID: it.ID, Series: series, Owner: it.Owner, Commenters: commenters}
			}
		}()
	}
	for i := range col.Items {
		next <- i
	}
	close(next)
	wg.Wait()

	type timed struct {
		Comment
		month int
	}
	var test []timed
	for _, it := range col.Items {
		for _, cm := range it.Comments {
			if cm.Month >= o.MonthsSource {
				test = append(test, timed{Comment{it.ID, cm.User}, cm.Month})
			}
		}
	}
	sort.SliceStable(test, func(a, b int) bool { return test[a].month < test[b].month })
	for _, t := range test {
		c.Comments = append(c.Comments, t.Comment)
	}
	return c
}

// buildKey fingerprints the running executable. Caches derived from the
// program's code (the prepared corpus, the exact reference rankings) are
// filed under it, so any change to the code that produced them — rendering,
// extraction, ranking — yields a fresh key and a rebuild.
func buildKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locate executable: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("open executable: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash executable: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// prepare renders and extracts the corpus and ranks it with exact CSF,
// writing both under dir filed by key and removing files of other keys.
// It runs in a process of its own, so the garbage of rendering never
// weighs on a measuring process.
func prepare(dir, key string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	log.Printf("rendering and extracting the corpus, once per build")
	c := generateCorpus()
	if err := writeGob(dir, "corpus", key, c); err != nil {
		return err
	}
	log.Printf("ranking the corpus with exact CSF, once per build")
	ref, err := exactTopK(c)
	if err != nil {
		return err
	}
	return writeGob(dir, "exact", key, ref)
}

func gobPath(dir, name, key string) string {
	return filepath.Join(dir, name+"-"+key+".gob")
}

// writeGob stores v atomically as dir/name-key.gob and removes the files
// of other keys.
func writeGob(dir, name, key string, v any) error {
	tmp, err := os.CreateTemp(dir, name+"-*.tmp")
	if err != nil {
		return fmt.Errorf("write %s: %w", name, err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(v); err != nil {
		tmp.Close()
		return fmt.Errorf("write %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("write %s: %w", name, err)
	}
	path := gobPath(dir, name, key)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("write %s: %w", name, err)
	}
	stale, _ := filepath.Glob(filepath.Join(dir, name+"-*.gob"))
	for _, s := range stale {
		if s != path {
			os.Remove(s)
		}
	}
	return nil
}

// readGob decodes a file written by writeGob into v.
func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	return nil
}
