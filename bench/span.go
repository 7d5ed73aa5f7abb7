package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"sccsim/internal/obs"
)

// span is one timed region of a traced run, recorded by the benchmark
// around a call into one layer. Its name is "<layer>.<operation>", so
// the layer is everything before the first dot. Offsets are from the
// recorder's start.
type span struct {
	name       string
	id, parent int // parent -1: a root span
	start, end time.Duration
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps a traced run's spans in memory until the run ends. A
// nil recorder records nothing, which is how untraced runs stay free of
// tracing cost: every method is a nil check and a return.
//
// The spans are the benchmark's own, taken around the public calls it
// makes, and exported through internal/obs. They are not obs.Span
// values because the engine reports a design point's time only after
// the point finished (the Progress hook), and an obs.Span cannot start
// in the past.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id (-1 when not
// recording). Close it with end.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: now, end: -1})
	return id
}

// end closes the span id opened by begin; -1 is ignored.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// done records a span that has just finished after lasting d.
func (r *recorder) done(parent int, name string, d time.Duration) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, start: max(0, now-d), end: now})
	r.mu.Unlock()
}

// snapshot returns the recorded spans, closing any still open at now.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].end < 0 {
			out[i].end = now
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other (concurrent engine workers) are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	layer string
	self  time.Duration
	spans int
}

// layerTimes sums self time and span counts per layer, in layer order.
func layerTimes(spans []span) []layerTime {
	self := selfTimes(spans)
	byLayer := map[string]*layerTime{}
	for i, s := range spans {
		lt := byLayer[s.layer()]
		if lt == nil {
			lt = &layerTime{layer: s.layer()}
			byLayer[s.layer()] = lt
		}
		lt.self += self[i]
		lt.spans++
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON through the
// obs exporter: one process named after the run, spans packed onto as
// few tracks as keep every track properly nested. The exporter's time
// unit is the microsecond.
func writeChrome(w io.Writer, name string, spans []span) error {
	var kinds []string
	kind := map[string]uint8{}
	for _, s := range spans {
		if _, ok := kind[s.name]; !ok {
			if len(kinds) == 256 {
				return fmt.Errorf("bench: more than 256 span names")
			}
			kind[s.name] = uint8(len(kinds))
			kinds = append(kinds, s.name)
		}
	}
	ts := obs.NewTraceSet(kinds)
	col := ts.NewCollector(name, len(spans)+1)
	for i, track := range packTracks(spans) {
		s := spans[i]
		col.SetTrackName(int32(track), fmt.Sprintf("lane %d", track))
		col.Emit(obs.Event{
			TS:    uint64(s.start.Microseconds()),
			Dur:   uint64(s.dur().Microseconds()),
			Track: int32(track),
			Kind:  kind[s.name],
		})
	}
	return ts.WriteChrome(w)
}

// packTracks assigns each span a track such that spans sharing a track
// either nest or do not overlap — what a trace viewer needs to draw
// them. Concurrent spans (engine workers, open-loop requests) land on
// separate tracks.
func packTracks(spans []span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	var stacks [][]time.Duration // per track: ends of the open spans
	track := make([]int, len(spans))
	for _, i := range order {
		s := spans[i]
		placed := false
		for t := range stacks {
			st := stacks[t]
			for len(st) > 0 && st[len(st)-1] <= s.start {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || st[len(st)-1] >= s.end {
				stacks[t] = append(st, s.end)
				track[i], placed = t, true
				break
			}
			stacks[t] = st
		}
		if !placed {
			track[i] = len(stacks)
			stacks = append(stacks, []time.Duration{s.end})
		}
	}
	return track
}
