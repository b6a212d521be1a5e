package main

// The traced run's span recorder. Spans are recorded only at the
// benchmark's own boundaries — its calls into each layer's public
// functions and the seams the program exposes (Config.Executor,
// Config.Memo, the serve http.Handler) — kept in memory, and written out
// once at the end as Chrome trace-event JSON, which Perfetto opens.
//
// A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary; the analysis methods are only called on a traced run's tracer.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval. Lane groups the spans that nest on one
// logical thread: 0 is the harness, 1 and 2 are the advisor client's
// connections, and a request's server-side spans join its client's lane.
type span struct {
	name       string
	id         uint64 // trial or request id; spans of one request share it
	parent     int    // index into tracer.spans; -1 for a root
	lane       int
	start, end time.Duration // since the tracer's origin
	arg        string
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle; parent -1 marks a root, or a
// span whose parent is resolved later (see adopt).
func (t *tracer) begin(name string, id uint64, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, lane: lane, start: now, end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

func (t *tracer) setArg(h int, arg string) {
	if t == nil || h < 0 {
		return
	}
	t.mu.Lock()
	t.spans[h].arg = arg
	t.mu.Unlock()
}

// adopt gives every parentless span named child the innermost span named
// owner whose arg is ownerArg and whose interval contains it, and moves it
// to the owner's lane. The advisor needs this: a trial callback runs on
// the singleflight leader's handler goroutine, which the executor seam
// cannot see, but cold keys are sent one at a time, so exactly one leader
// handler is open around each trial.
func (t *tracer) adopt(child, owner, ownerArg string) {
	var owners []int
	for i, s := range t.spans {
		if s.name == owner && s.arg == ownerArg {
			owners = append(owners, i)
		}
	}
	moved := make([]bool, len(t.spans))
	for i := range t.spans {
		c := &t.spans[i]
		if c.parent >= 0 {
			// Spans are appended in start order, so a moved parent is
			// seen before its children, which follow it to its lane.
			if moved[c.parent] {
				c.lane, moved[i] = t.spans[c.parent].lane, true
			}
			continue
		}
		if c.name != child {
			continue
		}
		for _, o := range owners {
			if own := t.spans[o]; own.start <= c.start && c.end <= own.end {
				c.parent, c.lane, moved[i] = o, own.lane, true
				break
			}
		}
	}
}

// selfTimes splits the wall time covered by the roots named root among
// span names. At each instant every lane with an open span contributes its
// innermost open span; the lanes present share the instant equally, and
// the harness lane counts only while no other lane is active (it is then
// just waiting on them). The shares therefore add up to the roots' wall
// time exactly, with or without concurrent lanes.
func (t *tracer) selfTimes(root string) (byName map[string]time.Duration, wall time.Duration) {
	byName = map[string]time.Duration{}
	inRoot := make([]bool, len(t.spans))
	for i, s := range t.spans {
		r := i
		for t.spans[r].parent >= 0 {
			r = t.spans[r].parent
		}
		inRoot[i] = t.spans[r].name == root && s.end >= 0
		if inRoot[i] && s.parent < 0 {
			wall += s.end - s.start
		}
	}
	type event struct {
		at    time.Duration
		open  bool
		index int
	}
	var evs []event
	for i, s := range t.spans {
		if inRoot[i] {
			evs = append(evs, event{s.start, true, i}, event{s.end, false, i})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	stacks := map[int][]int{}
	prev := time.Duration(0)
	for _, ev := range evs {
		if d := ev.at - prev; d > 0 {
			var owners []int
			for lane, st := range stacks {
				if lane != 0 && len(st) > 0 {
					owners = append(owners, st[len(st)-1])
				}
			}
			if len(owners) == 0 && len(stacks[0]) > 0 {
				owners = append(owners, stacks[0][len(stacks[0])-1])
			}
			for _, o := range owners {
				byName[t.spans[o].name] += d / time.Duration(len(owners))
			}
		}
		prev = ev.at
		lane := t.spans[ev.index].lane
		if ev.open {
			stacks[lane] = append(stacks[lane], ev.index)
			continue
		}
		st := stacks[lane]
		for k := len(st) - 1; k >= 0; k-- {
			if st[k] == ev.index {
				stacks[lane] = append(st[:k], st[k+1:]...)
				break
			}
		}
	}
	return byName, wall
}

// durations returns the durations of every finished span named name whose
// arg matches arg ("" matches any).
func (t *tracer) durations(name, arg string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 && (arg == "" || s.arg == arg) {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), one thread row per lane.
func (t *tracer) writeChrome(path string) error {
	type traceEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]traceEvent, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		args := map[string]any{"span": i, "parent": s.parent, "id": s.id}
		if s.arg != "" {
			args["arg"] = s.arg
		}
		evs = append(evs, traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane, Args: args,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
