package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/analytics"
	"batterylab/internal/api"
	"batterylab/internal/metrics"
	"batterylab/internal/trace"
)

// roundResult is everything one round measured and checked.
type roundResult struct {
	traced      bool
	setup, wall time.Duration
	cpu         time.Duration // process CPU time of the measured phase
	builds      int           // builds that reached a terminal state

	mu        sync.Mutex
	attempted int
	failedOps int
	checks    []string
	handler   map[string]*dist // microseconds, by route kind
	relayMS   dist
	streams   map[string]*streamStats

	// Written by one goroutine each, read after the round.
	submitMS, statusMS, analyticsMS dist
	clientOverhead                  dist // microseconds
	answers                         []answer
	steps                           int
	backlogMax                      int
	backlogSum                      float64
	stepRecs                        []stepRec

	lockAcq    int64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPauseNS  uint64

	// Harvested after the round.
	waits                         []float64 // queue wait, virtual seconds, per build that ran
	waitHash                      uint64
	success, aborted, failure     int
	queuedAborts, runningAborts   int
	samplesPosted                 int64
	heartbeats, dispatched, shed  float64
	routed, peerLosses, announces float64
	retries, reconnects           float64
	cacheHits, cacheMisses        float64
	samplesDropped, eventsDropped float64
	walAppends, walBytes          int64
	fsync, snapshot               metrics.HistogramValue
	computeUS                     dist
	obs                           [numObs]*dist
	layerSelf                     [numLayers]int64
	spanCount                     [numLayers]int
	costGrowth                    float64
	tr                            *tracer
}

type streamStats struct {
	streams int
	samples int
	bytes   int64
	wall    time.Duration
	open    dist // milliseconds
}

// stepRec is one clock step: the accessserver self time inside it, the
// backlog after it, and the builds it completed.
type stepRec struct {
	self  int64
	depth int32
	done  int32
}

type answer struct {
	key int
	q   api.AnalyticsQuery
	got api.AnalyticsResult
}

func newRoundResult(traced bool) *roundResult {
	return &roundResult{traced: traced, handler: map[string]*dist{}, streams: map[string]*streamStats{}}
}

func (res *roundResult) op(err error) {
	res.mu.Lock()
	res.attempted++
	if err != nil {
		res.failedOps++
	}
	res.mu.Unlock()
}

// checkf records a failed output check.
func (res *roundResult) checkf(format string, args ...any) {
	res.mu.Lock()
	if len(res.checks) < 20 {
		res.checks = append(res.checks, fmt.Sprintf(format, args...))
	}
	res.mu.Unlock()
}

func (res *roundResult) addHandler(kind string, d time.Duration) {
	res.mu.Lock()
	h := res.handler[kind]
	if h == nil {
		h = &dist{}
		res.handler[kind] = h
	}
	h.add(float64(d) / 1e3)
	res.mu.Unlock()
}

func (res *roundResult) addRelay(d time.Duration) {
	res.mu.Lock()
	res.relayMS.add(ms(d))
	res.mu.Unlock()
}

func (res *roundResult) addStream(path string, samples int, bytes int64, open, wall time.Duration) {
	res.mu.Lock()
	s := res.streams[path]
	if s == nil {
		s = &streamStats{}
		res.streams[path] = s
	}
	s.streams++
	s.samples += samples
	s.bytes += bytes
	s.wall += wall
	if open > 0 {
		s.open.add(ms(open))
	}
	res.mu.Unlock()
}

func (res *roundResult) observeStep(self int64, depth, done int) {
	res.steps++
	res.backlogSum += float64(depth)
	if depth > res.backlogMax {
		res.backlogMax = depth
	}
	if res.traced {
		res.stepRecs = append(res.stepRecs, stepRec{self: self, depth: int32(depth), done: int32(done)})
	}
}

// harvest checks the round's outputs and collects its server-side
// counters.
func (r *round) harvest() {
	res := r.res
	res.waitHash = hashSeed
	for key := range r.p.builds {
		bp := &r.p.builds[key]
		id := r.ids[key]
		if id == 0 {
			continue // its submit failed, already a failed check
		}
		b, err := r.home.Build(id)
		if err != nil {
			res.checkf("build %d: %v", id, err)
			continue
		}
		switch b.State() {
		case accessserver.StateSuccess:
			res.success++
		case accessserver.StateAborted:
			res.aborted++
			if b.Attempts() == 0 {
				res.queuedAborts++
			} else {
				res.runningAborts++
			}
		case accessserver.StateFailure:
			res.failure++
			res.checkf("build %d failed: %v", id, b.Err())
		default:
			res.checkf("build %d ended the round %s", id, b.State())
		}
		if b.Attempts() > 0 {
			w := b.QueueTime()
			res.waits = append(res.waits, w.Seconds())
			res.waitHash = sampleHash(res.waitHash, int64(id), float64(w))
		}
		if r.w.federated && (b.RoutedVia() != "") != bp.peer {
			res.checkf("build %d routed via %q, generated peer=%v", id, b.RoutedVia(), bp.peer)
		}
		n, _, _ := r.recs[key].snapshot()
		res.samplesPosted += int64(n)
	}
	// Every build is an operation too. The round's goroutines have
	// ended, so the counters need no lock here.
	res.builds = res.success + res.aborted + res.failure
	res.attempted += len(r.p.builds)
	res.failedOps += res.failure + len(r.p.builds) - res.builds

	snap := r.home.MetricsSnapshot()
	res.heartbeats = family(snap, "blab_node_heartbeats_total")
	res.dispatched = family(snap, "blab_builds_dispatched_total")
	res.shed = family(snap, "blab_admission_shed_total")
	res.routed = family(snap, "blab_cluster_builds_routed_total")
	res.peerLosses = family(snap, "blab_cluster_peer_losses_total")
	res.announces = family(snap, "blab_cluster_announces_total")
	res.cacheHits = family(snap, "blab_analytics_cache_hits_total")
	res.cacheMisses = family(snap, "blab_analytics_cache_misses_total")
	res.samplesDropped = family(snap, "blab_feed_samples_dropped_total")
	res.eventsDropped = family(snap, "blab_feed_events_dropped_total")
	if m, ok := snap.Get("blab_wal_fsync_seconds"); ok && m.Hist != nil {
		res.fsync = *m.Hist
	}
	if m, ok := snap.Get("blab_store_snapshot_seconds"); ok && m.Hist != nil {
		res.snapshot = *m.Hist
	}
	res.walAppends = r.st.TotalAppends()
	res.walBytes = r.st.TotalAppendBytes()
	if r.gw != nil {
		res.reconnects = family(r.gw.MetricsRegistry().Snapshot(), "blab_feedgw_reconnects_total")
	}
	for _, p := range r.platforms() {
		st := p.Stats()
		res.retries += float64(st.RequestRetries + st.StreamReconnects)
	}
	if res.samplesDropped+res.eventsDropped > 0 {
		res.checkf("the feeds dropped %v samples and %v events", res.samplesDropped, res.eventsDropped)
	}
	for _, c := range checkOutcomes(r.p, res) {
		res.checkf("%s", c)
	}
	r.checkAnswers()

	if res.traced {
		for i := range res.obs {
			res.obs[i] = r.tr.observations(obsKind(i))
		}
		res.layerSelf = r.tr.selfByLayer()
		res.spanCount = r.tr.spanCount()
		res.costGrowth = costGrowth(res.stepRecs)
		res.stepRecs = nil
		res.tr = r.tr
	}
}

// checkOutcomes compares a round's outcome counts with those the plan
// implies: every canceled build aborted, every other one succeeded, and
// exactly the peer-pinned builds routed, with no peer lost.
func checkOutcomes(p *plan, res *roundResult) []string {
	var out []string
	wantAborted, wantRouted := 0, 0
	for _, bp := range p.builds {
		if bp.cancelAfter > 0 {
			wantAborted++
		}
		if bp.peer {
			wantRouted++
		}
	}
	if want := len(p.builds) - wantAborted; res.success != want || res.aborted != wantAborted || res.failure != 0 {
		out = append(out, fmt.Sprintf("outcomes: %d succeeded, %d aborted, %d failed; the seed implies %d, %d, 0",
			res.success, res.aborted, res.failure, want, wantAborted))
	}
	if int(res.routed) != wantRouted || res.peerLosses != 0 {
		out = append(out, fmt.Sprintf("federation: %v builds routed (generated %d), %v peers lost",
			res.routed, wantRouted, res.peerLosses))
	}
	return out
}

// checkAnswers compares every analytics body with analytics.Compute run
// on the trace the build stored; traced rounds time those calls.
//
// Untraced rounds reuse the expected body an earlier round of the run
// computed for the same build, query and trace bytes: every round of a
// seed stores the same traces.
func (r *round) checkAnswers() {
	res := r.res
	for _, a := range res.answers {
		_, _, data := r.recs[a.key].snapshot()
		h := fnv.New64a()
		h.Write(data)
		ck := fmt.Sprintf("%d|%d|%v|%x", r.ids[a.key], a.q.WindowNS, a.q.Fields, h.Sum64())
		wb, ok := r.opts.expected[ck]
		if !ok || res.traced {
			tr, err := trace.ReadBinary(bytes.NewReader(data))
			if err != nil {
				res.checkf("build %d's stored trace: %v", r.ids[a.key], err)
				continue
			}
			q := a.q
			q.Artifact = "current.trace"
			t0 := time.Now()
			want, err := analytics.Compute(tr, q)
			if res.traced {
				res.computeUS.add(float64(time.Since(t0)) / 1e3)
			}
			if err != nil {
				res.checkf("computing build %d's analytics: %v", r.ids[a.key], err)
				continue
			}
			want.BuildID = r.ids[a.key]
			wb, _ = json.Marshal(want)
			if r.opts.expected != nil {
				r.opts.expected[ck] = wb
			}
		}
		gb, _ := json.Marshal(a.got)
		if !bytes.Equal(wb, gb) {
			res.checkf("build %d's analytics body differs from analytics.Compute on its trace", r.ids[a.key])
		}
	}
	res.answers = nil
}

// family sums every series of a metric family.
func family(s metrics.Snapshot, name string) float64 {
	sum := 0.0
	for _, f := range s.Families {
		if f.Name == name {
			for _, m := range f.Metrics {
				sum += m.Value
			}
		}
	}
	return sum
}

// costGrowth splits a round's steps into quarters by completed builds
// and returns the accessserver step self time per completed build in
// the deepest-backlog quarter over that in the shallowest. A scheduler
// whose per-build cost does not depend on the backlog scores about 1.
func costGrowth(steps []stepRec) float64 {
	total := 0
	for _, s := range steps {
		total += int(s.done)
	}
	if total < 4 {
		return math.NaN()
	}
	var self, depth [4]float64
	var done, n [4]int
	cum := 0
	for _, s := range steps {
		q := cum * 4 / total
		if q > 3 {
			q = 3
		}
		self[q] += float64(s.self)
		depth[q] += float64(s.depth)
		n[q]++
		done[q] += int(s.done)
		cum += int(s.done)
	}
	deep, shallow := -1, -1
	for q := 0; q < 4; q++ {
		if done[q] == 0 || n[q] == 0 {
			continue
		}
		d := depth[q] / float64(n[q])
		if deep < 0 || d > depth[deep]/float64(n[deep]) {
			deep = q
		}
		if shallow < 0 || d < depth[shallow]/float64(n[shallow]) {
			shallow = q
		}
	}
	if deep < 0 {
		return math.NaN()
	}
	return (self[deep] / float64(done[deep])) / (self[shallow] / float64(done[shallow]))
}
