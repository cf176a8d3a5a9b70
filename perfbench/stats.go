package main

import (
	"container/list"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule, sorting xs in place. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median is quantile(xs, 0.5) over a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// lruHitShare replays ids through an LRU of the given capacity that starts
// holding the warm prefix, and returns the share of the remaining ids it
// hits — the hit share of the server's result cache on this stream were no
// update ever to publish a new view.
func lruHitShare(warm, ids []string, capacity int) float64 {
	l := list.New()
	pos := map[string]*list.Element{}
	touch := func(id string) bool {
		if e, ok := pos[id]; ok {
			l.MoveToFront(e)
			return true
		}
		pos[id] = l.PushFront(id)
		if l.Len() > capacity {
			old := l.Back()
			l.Remove(old)
			delete(pos, old.Value.(string))
		}
		return false
	}
	for _, id := range warm {
		touch(id)
	}
	hits := 0
	for _, id := range ids {
		if touch(id) {
			hits++
		}
	}
	if len(ids) == 0 {
		return 0
	}
	return float64(hits) / float64(len(ids))
}

// uniqueShare is the mean share of distinct ids in consecutive windows of n
// requests — how much work a window of concurrent requests shares.
func uniqueShare(ids []string, n int) float64 {
	var shares []float64
	for lo := 0; lo+n <= len(ids); lo += n {
		seen := map[string]bool{}
		for _, id := range ids[lo : lo+n] {
			seen[id] = true
		}
		shares = append(shares, float64(len(seen))/float64(n))
	}
	return mean(shares)
}
