package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/api"
	"batterylab/internal/trace"
)

// benchWorkload is the one workload name the benchmark's spec backend
// compiles; the build's plan key travels in its params.
const benchWorkload = "bench"

var errCanceled = errors.New("canceled by the generator")

// backend is the benchmark's accessserver.SpecBackend: it compiles the
// generated specs into runs that post events and samples on the
// virtual clock, exactly as the plan says, and records what each run
// posted so the streams can be checked against it.
type backend struct {
	r     *round
	local map[string]bool
	// running counts runs started and not yet settled; settled counts
	// runs that called done.
	running atomic.Int64
	settled atomic.Int64

	mu       sync.Mutex
	finished []int // plan keys of runs that succeeded, not yet taken
}

func newBackend(r *round, nodes []string) *backend {
	be := &backend{r: r, local: map[string]bool{}}
	for _, n := range nodes {
		be.local[n] = true
	}
	return be
}

func (be *backend) WorkloadNames() []string { return []string{benchWorkload} }

func (be *backend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	if !be.local[spec.Node] {
		return accessserver.Constraints{}, nil, fmt.Errorf("%w: node %q", accessserver.ErrNotFound, spec.Node)
	}
	key := spec.Workload.Params.Int("key", -1)
	if spec.Workload.Name != benchWorkload || key < 0 || key >= len(be.r.p.builds) {
		return accessserver.Constraints{}, nil, fmt.Errorf("%w: not a generated spec", accessserver.ErrInvalid)
	}
	return accessserver.Constraints{Node: spec.Node, Device: spec.Device}, be.run(key), nil
}

// takeFinished returns the plan keys of runs that succeeded since the
// last call.
func (be *backend) takeFinished() []int {
	be.mu.Lock()
	defer be.mu.Unlock()
	out := be.finished
	be.finished = nil
	return out
}

// run is one build's pipeline: a "workload" event, sample batches on
// the virtual clock (every 100 ms, or every second below 10 Hz), a
// "progress" event each virtual second, then "teardown", the optional
// current.trace artifact, and done.
func (be *backend) run(key int) accessserver.RunFunc {
	return func(ctx *accessserver.BuildContext, done func(error)) {
		r := be.r
		bp := &r.p.builds[key]
		rec := r.recs[key]
		id := ctx.Build.ID
		ln := r.cbLane()
		ln.begin(layerBench, "backend.run", id)
		defer ln.end()
		be.running.Add(1)
		r.noteRelay()

		var over atomic.Bool
		settle := func(err error) bool {
			if over.Swap(true) {
				return false
			}
			ln := r.cbLane()
			ln.begin(layerAccess, "server.done", id)
			done(err)
			ln.end()
			be.running.Add(-1)
			be.settled.Add(1)
			r.noteRelay()
			rec.markFirst()
			return true
		}
		ctx.OnCancel(func() { settle(errCanceled) })

		feed := ctx.Build.Feed()
		start := r.clk.Now()
		be.postEvent(ln, feed, api.BuildEvent{Build: id, Node: bp.node, Phase: "workload", AtNS: start.UnixNano()})

		period := time.Second / time.Duration(bp.rateHz)
		interval := 100 * time.Millisecond
		if bp.rateHz < 10 {
			interval = time.Second
		}
		perBatch := int(interval / period)
		var series *trace.Series
		if r.w.saveTrace {
			series = trace.NewSeries("current", "mA")
		}
		posted := 0
		var tick func()
		tick = func() {
			if over.Load() {
				return
			}
			ln := r.cbLane()
			ln.begin(layerBench, "backend.batch", id)
			defer ln.end()
			for i := 0; i < perBatch; i++ {
				at := start.Add(period * time.Duration(posted+1))
				v := sampleValue(bp.seed, posted)
				rec.add(at.UnixNano(), v)
				if series != nil {
					series.MustAppend(at, v)
				}
				be.postSample(ln, feed, api.SamplePoint{AtNS: at.UnixNano(), CurrentMA: v})
				posted++
			}
			rec.markFirst()
			now := r.clk.Now()
			if now.Sub(start) < bp.dur {
				if now.Sub(start)%time.Second == 0 {
					be.postEvent(ln, feed, api.BuildEvent{Build: id, Node: bp.node, Phase: "progress", AtNS: now.UnixNano()})
				}
				r.clk.AfterFunc(interval, tick)
				return
			}
			be.postEvent(ln, feed, api.BuildEvent{Build: id, Node: bp.node, Phase: "teardown", AtNS: now.UnixNano()})
			if series != nil {
				var buf bytes.Buffer
				if err := series.WriteBinary(&buf); err != nil {
					r.fail(fmt.Errorf("encoding build %d's trace: %w", id, err))
				}
				rec.setTrace(buf.Bytes())
				ctx.Build.Workspace().Save("current.trace", buf.Bytes())
			}
			if settle(nil) {
				be.mu.Lock()
				be.finished = append(be.finished, key)
				be.mu.Unlock()
			}
		}
		r.clk.AfterFunc(interval, tick)
	}
}

func (be *backend) postSample(ln *lane, f *feedhub.Feed, p api.SamplePoint) {
	if ln == nil {
		f.PostSample(p)
		return
	}
	t0 := time.Now()
	f.PostSample(p)
	ln.call(layerFeedhub, obsPostSample, time.Since(t0))
}

func (be *backend) postEvent(ln *lane, f *feedhub.Feed, e api.BuildEvent) {
	if ln == nil {
		f.PostEvent(e)
		return
	}
	t0 := time.Now()
	f.PostEvent(e)
	ln.call(layerFeedhub, obsPostEvent, time.Since(t0))
}

// sampleValue is the i-th current reading of a run: 80-120 mA from a
// splitmix64 stream, so a seed fixes every value.
func sampleValue(seed uint64, i int) float64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return 80 + 40*float64(z>>11)/(1<<53)
}

// sampleHash folds one sample into an FNV-1a digest, so a stream and
// the run that posted it can be compared in order without keeping
// either.
func sampleHash(h uint64, atNS int64, v float64) uint64 {
	const prime = 1099511628211
	x := uint64(atNS)
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * prime
		x >>= 8
	}
	x = math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * prime
		x >>= 8
	}
	return h
}

const hashSeed = 14695981039346656037

// runRecord is what one run posted: a count and in-order digest of its
// samples, and its stored trace.
type runRecord struct {
	mu      sync.Mutex
	n       int
	hash    uint64
	trace   []byte
	first   chan struct{} // closed once samples are buffered (or the run ended)
	firstOK bool
}

func newRunRecord() *runRecord { return &runRecord{hash: hashSeed, first: make(chan struct{})} }

func (rr *runRecord) add(atNS int64, v float64) {
	rr.mu.Lock()
	rr.n++
	rr.hash = sampleHash(rr.hash, atNS, v)
	rr.mu.Unlock()
}

func (rr *runRecord) markFirst() {
	rr.mu.Lock()
	if !rr.firstOK {
		rr.firstOK = true
		close(rr.first)
	}
	rr.mu.Unlock()
}

func (rr *runRecord) setTrace(b []byte) {
	rr.mu.Lock()
	rr.trace = b
	rr.mu.Unlock()
}

func (rr *runRecord) snapshot() (n int, hash uint64, tr []byte) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.n, rr.hash, rr.trace
}

// benchNode is an in-process vantage point stub. It implements
// accessserver.Pinger, so heartbeats run synchronously on the virtual
// clock.
type benchNode struct{ name string }

func (n benchNode) Name() string { return n.name }

func (n benchNode) Exec(cmd string, args ...string) (string, error) {
	switch cmd {
	case "ping":
		return "pong", nil
	case "list_devices":
		return "dev-" + n.name, nil
	case "status":
		return "status: cpu=5.0%", nil
	}
	return "", nil
}

func (n benchNode) Ping() error { return nil }
