package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call.
type span struct {
	name       string
	start, end time.Duration // since the recorder's origin
	parent     int           // index of the enclosing span, -1 for a root
	req        int           // request (program or job) the span serves
	tid        int           // lane in the Chrome trace
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the same pipeline code runs traced and untraced.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(name string, parent, req, tid int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, req: req, tid: tid})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// selfTimes returns every span name's summed self time: its duration
// minus the part of its interval covered by its child spans.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		var iv [][2]time.Duration
		for _, c := range children[i] {
			iv = append(iv, [2]time.Duration{r.spans[c].start, r.spans[c].end})
		}
		out[s.name] += (s.end - s.start) - covered(iv, s.start, s.end)
	}
	return out
}

// rootDurations returns the duration in ms of every span without a
// parent: one per traced item.
func (r *recorder) rootDurations() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.parent < 0 {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// covered is the length of the union of intervals iv clipped to [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event array and checks
// that the file reads back as JSON.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "req": s.req},
		}
	}
	r.mu.Unlock()
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	back, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var check []chromeEvent
	if err := json.Unmarshal(back, &check); err != nil || len(check) != len(events) {
		return fmt.Errorf("trace %s does not read back as JSON: %v", path, err)
	}
	return nil
}
