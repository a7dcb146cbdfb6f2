package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's
// side of the call. Work spans nest: a span's self time is its
// duration minus the part of it that its children cover, and the
// self times of one goroutine's spans never overlap. Latency spans
// (Wait set) record how long something took end to end, such as
// a campaign cell waiting on the shared pool; they feed latency
// percentiles and are left out of self time.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the trace, -1 for none
	Wait   bool   `json:"wait,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the same composition code runs traced and
// untraced.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a work span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// rename renames an open span, for a call whose layer shows only once
// it is under way (a cache lookup that turns into a fill).
func (t *tracer) rename(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// record adds a finished span measured by the caller.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs fn inside a work span.
func (t *tracer) do(name string, parent int, fn func(id int)) {
	id := t.begin(name, parent)
	defer t.end(id)
	fn(id)
}

// snapshot returns the recorded spans; call it once every span has
// ended.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON, one file per traced run.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums the self time of the work spans by span name.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && !s.Wait {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		if s.Wait {
			continue
		}
		self[s.Name] += s.dur() - covered(s, spans, children[i])
	}
	return self
}

// layerTimes sums self times by layer, the span name up to its first
// dot ("faultinj.inject" → "faultinj").
func layerTimes(self map[string]time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, d := range self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += d
	}
	return out
}

// covered is the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	curS, curE := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curE {
			sum += max(curE-curS, 0)
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	sum += max(curE-curS, 0)
	return time.Duration(sum)
}

// durations returns the durations of every span with the given name,
// in milliseconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// total sums the durations of every span with the given name.
func total(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// window is the interval from the first start to the last end of the
// spans with the given name.
func window(spans []span, name string) time.Duration {
	first, last := int64(-1), int64(0)
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if first < 0 || s.Start < first {
			first = s.Start
		}
		last = max(last, s.End)
	}
	if first < 0 {
		return 0
	}
	return time.Duration(last - first)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile that has at least ten samples beyond
// it: the eleventh-largest sample. With ten or fewer samples there is
// no such percentile and tail falls back to the maximum. The label
// names the percentile and the sample count.
func tail(xs []float64) (value float64, label string) {
	n := len(xs)
	if n == 0 {
		return 0, "n=0"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], fmt.Sprintf("max (n=%d, fewer than 11 samples)", n)
	}
	return s[n-11], fmt.Sprintf("p%.4g (n=%d, 10 beyond)", 100*float64(n-10)/float64(n), n)
}
