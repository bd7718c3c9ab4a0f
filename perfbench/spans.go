package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Layers are the program's packages a span's self time is charged to,
// plus the benchmark's own code.
type layer uint8

const (
	layerBench layer = iota
	layerAccess
	layerFeedhub
	layerAPI
	layerRemote
	layerFeedgw
	layerAnalytics
	layerCluster
	numLayers
)

var layerNames = [numLayers]string{"bench", "accessserver", "feedhub", "api", "remote", "feedgw", "analytics", "cluster"}

func (l layer) String() string { return layerNames[l] }

// span is one timed call into a layer. Parent is the span that caused
// it (-1 for a root); build is the build it served (0 when it served
// none or many). Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent int32
	build      int32
	layer      layer
	name       string
	start, end int64
}

// tracer records spans in memory, one lane per sequential caller. A nil
// *tracer and a nil *lane record nothing, so untraced runs pay only a
// nil check.
type tracer struct {
	// now reads the span clock, nanoseconds since the tracer started.
	now    func() int64
	nextID atomic.Int32

	mu    sync.Mutex
	lanes []*lane
}

func newTracer() *tracer {
	epoch := time.Now()
	return &tracer{now: func() int64 { return int64(time.Since(epoch)) }}
}

// lane is a stack of open spans owned by one logical caller: a client
// goroutine plus the server handlers it waits on. The mutex orders
// those hand-offs for the race detector; the caller never runs
// concurrently with its own handlers.
type lane struct {
	t     *tracer
	mu    sync.Mutex
	stack []openSpan
	spans []span
	self  [numLayers]int64
	obs   [numObs]dist // per-call timings, microseconds
	// step accumulates the accessserver self time inside the open
	// clock step (-1 while no step is open).
	step int64
}

// obsKind names a per-call timing kept whole for its percentiles.
type obsKind uint8

const (
	obsPostSample obsKind = iota
	obsPostEvent
	obsDecode
	obsStepSelf
	numObs
)

type openSpan struct {
	idx     int
	childNS int64
}

func (t *tracer) newLane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{t: t, step: -1}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// begin opens a span under the lane's innermost open span.
func (l *lane) begin(ly layer, name string, build int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.spans[l.stack[n-1].idx].id
	}
	l.spans = append(l.spans, span{
		id: l.t.nextID.Add(1), parent: parent, build: int32(build),
		layer: ly, name: name, start: l.t.now(),
	})
	l.stack = append(l.stack, openSpan{idx: len(l.spans) - 1})
	l.mu.Unlock()
}

// end closes the innermost open span and returns its self time: its
// duration minus the part its children covered.
func (l *lane) end() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	top := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	sp := &l.spans[top.idx]
	sp.end = l.t.now()
	dur := sp.end - sp.start
	self := dur - top.childNS
	l.chargeLocked(sp.layer, self)
	if n := len(l.stack); n > 0 {
		l.stack[n-1].childNS += dur
	}
	return self
}

// setBuild labels the innermost open span with the build it served,
// once that is known (a submit learns its build id from the response).
func (l *lane) setBuild(build int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if n := len(l.stack); n > 0 {
		l.spans[l.stack[n-1].idx].build = int32(build)
	}
	l.mu.Unlock()
}

// call records one call too fine-grained for its own span (one
// PostSample): its time is charged to ly, removed from the enclosing
// span's self time, and kept as an observation of kind ok.
func (l *lane) call(ly layer, ok obsKind, d time.Duration) {
	if l == nil {
		return
	}
	ns := int64(d)
	l.mu.Lock()
	l.chargeLocked(ly, ns)
	if n := len(l.stack); n > 0 {
		l.stack[n-1].childNS += ns
	}
	l.obs[ok].add(float64(ns) / 1e3)
	l.mu.Unlock()
}

func (l *lane) chargeLocked(ly layer, self int64) {
	l.self[ly] += self
	if ly == layerAccess && l.step >= 0 {
		l.step += self
	}
}

// beginStep opens a clock step span; endStep returns the accessserver
// self time spent inside it, including nested server calls made from
// the benchmark's callbacks (a build's done hook).
func (l *lane) beginStep() {
	if l == nil {
		return
	}
	l.begin(layerAccess, "clock.step", 0)
	l.mu.Lock()
	l.step = 0
	l.mu.Unlock()
}

func (l *lane) endStep() int64 {
	if l == nil {
		return 0
	}
	l.end()
	l.mu.Lock()
	defer l.mu.Unlock()
	acc := l.step
	l.step = -1
	l.obs[obsStepSelf].add(float64(acc) / 1e3)
	return acc
}

// active reports whether the lane has an open span, i.e. its owner is
// inside a step or waiting on a request right now.
func (l *lane) active() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.stack) > 0
}

// selfByLayer sums self time per layer over every lane.
func (t *tracer) selfByLayer() [numLayers]int64 {
	var out [numLayers]int64
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		l.mu.Lock()
		for i, v := range l.self {
			out[i] += v
		}
		l.mu.Unlock()
	}
	return out
}

// observations merges one kind of per-call timing over every lane.
func (t *tracer) observations(ok obsKind) *dist {
	out := &dist{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		l.mu.Lock()
		out.merge(&l.obs[ok])
		l.mu.Unlock()
	}
	return out
}

// spanCount counts recorded spans per layer.
func (t *tracer) spanCount() [numLayers]int {
	var out [numLayers]int
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		l.mu.Lock()
		for _, s := range l.spans {
			out[s.layer]++
		}
		l.mu.Unlock()
	}
	return out
}

// dump writes every span as gzip-compressed CSV, one line per span:
// id,parent,build,layer,name,start_ns,end_ns.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,build,layer,name,start_ns,end_ns")
	t.mu.Lock()
	for _, l := range t.lanes {
		l.mu.Lock()
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d\n", s.id, s.parent, s.build, s.layer, s.name, s.start, s.end)
		}
		l.mu.Unlock()
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
