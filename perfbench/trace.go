package main

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval recorded at a layer boundary, from the
// benchmark's side of a public call or hook. Parent is the ID of the
// span that caused it (0 for a root). Req ties together the spans of
// one serve request: the client span and the handler span carry the
// same request id, stamped on the wire by the client's transport.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the recorder's epoch
	End    int64  `json:"end"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory for the whole traced run; Write dumps
// them once the run ends. Safe for concurrent use.
type Recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Open is a span that has started but not ended; its ID is fixed at
// Begin so that children can name it as their parent while it runs.
type Open struct {
	rec   *Recorder
	span  Span
	start time.Time
}

// Begin opens a span now.
func (r *Recorder) Begin(name string, parent, req int64) *Open {
	return r.BeginAt(name, parent, req, time.Now())
}

// BeginAt opens a span that started at t.
func (r *Recorder) BeginAt(name string, parent, req int64, t time.Time) *Open {
	return &Open{rec: r, start: t, span: Span{ID: r.ids.Add(1), Parent: parent, Req: req, Name: name}}
}

// ID returns the open span's ID.
func (o *Open) ID() int64 { return o.span.ID }

// End closes the span now and records it.
func (o *Open) End() Span { return o.EndAt(time.Now()) }

// EndAt closes the span at t and records it.
func (o *Open) EndAt(t time.Time) Span {
	r := o.rec
	o.span.Start = int64(o.start.Sub(r.epoch))
	o.span.End = int64(t.Sub(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, o.span)
	r.mu.Unlock()
	return o.span
}

// Spans returns a copy of every recorded span, ordered by start.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Write stores the spans as one JSON array at path.
func (r *Recorder) Write(path string) error {
	raw, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return writeFile(path, raw)
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that run in
// parallel are merged first, so overlapping children are not counted
// twice.
func SelfTimes(spans []Span) map[int64]time.Duration {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals, clipped to
// the parent's.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// nestingErrors counts spans that end outside their parent's interval,
// allowing slack for the clock reads on either side of a boundary.
func nestingErrors(spans []Span, slack time.Duration) int {
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	bad := 0
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if s.Parent == 0 {
			continue
		}
		if !ok || s.Start < p.Start-int64(slack) || s.End > p.End+int64(slack) {
			bad++
		}
	}
	return bad
}
