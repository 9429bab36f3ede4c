package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (-1 for a root); spans of one repetition share Rep.
// Start and End are seconds since the tracer was created.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Rep    int     `json:"rep"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run shares code with the traced one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, rep int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Rep: rep, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// in times fn as a child span of parent.
func (t *tracer) in(name string, parent, rep int, fn func()) {
	id := t.begin(name, parent, rep)
	fn()
	t.end(id)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// coveredByChildren returns, per span id, how much of the span's interval
// its direct children cover: overlapping children count once and anything a
// child runs outside its parent's interval is clipped.
func coveredByChildren(spans []span) map[int]float64 {
	type iv struct{ lo, hi float64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], iv{lo, hi})
		}
	}
	covered := make(map[int]float64, len(kids))
	for id, ivs := range kids {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var sum float64
		curLo, curHi := ivs[0].lo, ivs[0].hi
		for _, v := range ivs[1:] {
			if v.lo > curHi {
				sum += curHi - curLo
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		covered[id] = sum + curHi - curLo
	}
	return covered
}

// selfTimes returns each span's duration minus the part its children cover.
func selfTimes(spans []span) map[int]float64 {
	covered := coveredByChildren(spans)
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered[s.ID]
	}
	return self
}

// accountedFrac is the share of span id's duration covered by its children.
func accountedFrac(spans []span, id int) float64 {
	for _, s := range spans {
		if s.ID == id && s.End > s.Start {
			return coveredByChildren(spans)[id] / (s.End - s.Start)
		}
	}
	return 0
}

// sumByName adds up the durations of the spans of one repetition by name.
func sumByName(spans []span, rep int) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		if s.Rep == rep {
			out[s.Name] += s.End - s.Start
		}
	}
	return out
}
