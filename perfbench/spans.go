package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Name is
// "<layer>.<what>"; Parent is the enclosing span's ID (0 at the root);
// Req groups the spans of one request (a job, a System, a rung).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// spanLayers are the layers self time is reported for, bottom up.
var spanLayers = []string{"sim", "kernel", "runtime", "lynx", "grid", "load", "service", "client"}

// spanRec keeps spans in memory until the run ends. A nil *spanRec is a
// valid recorder that records nothing, so untraced passes pay one nil
// check per call site.
type spanRec struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *spanRec) begin(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.next++
	id := r.next
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes span id.
func (r *spanRec) end(id int64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	// IDs are assigned in append order, so span id sits at index id-1.
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-measured interval as a span.
func (r *spanRec) add(name string, parent, req int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.mu.Unlock()
	return id
}

// all returns the closed spans.
func (r *spanRec) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTime returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Children running concurrently (a parallel sweep, several clients)
// overlap, and the union counts the covered time once.
func selfTime(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// selfTimeByLayer sums self time per layer.
func selfTimeByLayer(spans []span) map[string]int64 {
	self := selfTime(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
