package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one batch iteration or one request share a Trace id;
// Parent is the index of the enclosing span within the recorder, or -1.
type Span struct {
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is the
// untraced mode: Start returns -1 and End does nothing.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder starts an empty recorder whose offsets count from now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span and returns its index.
func (r *Recorder) Start(trace, name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Trace: trace, Name: name, Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// End closes the span opened by Start.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Add records an already-measured span (for example a server-side stage
// reported in a trace tree) and returns its index.
func (r *Recorder) Add(s Span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// Offset converts a wall-clock time to the recorder's span offset.
func (r *Recorder) Offset(t time.Time) time.Duration { return t.Sub(r.epoch) }

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns, per span index, the span's duration minus the part of
// its interval that its children cover. Overlapping children (concurrent
// calls) count once; child time outside the parent's interval is ignored.
// Unfinished spans get zero.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if hi < lo {
				continue
			}
			lo, hi = max(lo, s.Start), min(hi, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		covered += curHi - curLo
		out[i] = (s.End - s.Start) - covered
	}
	return out
}
