package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/feedgw"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/remote"
	"batterylab/internal/simclock"
)

const clusterToken = "perfbench-cluster"

// roundOpts configures one round.
type roundOpts struct {
	traced bool
	// dir holds the round's WAL directory.
	dir string
	// start is when the round began, for its deadline; startCPU is the
	// process CPU time then, so set-up is timed in CPU time (0: timed
	// from process start).
	start    time.Time
	startCPU time.Duration
	seed     int64
	// setupOnly stops the round after set-up, to time set-up alone.
	setupOnly bool
	// expected caches analytics bodies across the run's rounds (see
	// checkAnswers); nil disables the cache.
	expected map[string][]byte
}

// round is one pass of a workload's whole plan against a fresh server
// (or pair of servers) on a fresh virtual clock.
type round struct {
	w    *workload
	p    *plan
	opts roundOpts
	res  *roundResult

	tr *tracer
	// drv is the writer's lane: clock steps, the writer's requests and
	// their handlers, and the backend callbacks they run. rdr and flw
	// belong to the status reader and the stream follower.
	drv, rdr, flw *lane

	clk            *simclock.Virtual
	home, peer     *accessserver.Server
	homeBE, peerBE *backend
	st             *store.Store
	walDir         string
	homeTS, peerTS *httptest.Server
	gwTS           *httptest.Server
	gw             *feedgw.Gateway
	hw             *handlerWrap
	tokens         []string

	writer, reader, follower *client
	wplat, rplat             *remote.Platform
	fdirect, fgw             *remote.Platform

	recs []*runRecord

	idMu      sync.Mutex
	ids       []int // plan key -> build id, 0 until submitted
	submitted []int // build ids in submit order
	polls     *pollQueue
	pollRng   *rand.Rand
	lastRank  map[int]int

	relays atomic.Int64 // relays entered and not yet returned
	// relayMoved holds one pending wake-up for settle (see noteRelay).
	relayMoved chan struct{}

	// lastQueue is QueueLength after the latest step; benchLocks counts
	// scheduler-lock acquisitions the benchmark itself caused.
	lastQueue  int
	benchLocks int64

	errMu sync.Mutex
	err   error
	abort chan struct{}
}

func (r *round) fail(err error) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if r.err == nil {
		r.err = err
		close(r.abort)
	}
}

func (r *round) failed() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// cbLane is the lane for benchmark code the server calls back into: the
// writer's, while the writer is inside a step or waiting on one of its
// own requests, and none otherwise (a relay goroutine).
func (r *round) cbLane() *lane {
	if r.drv.active() {
		return r.drv
	}
	return nil
}

func (r *round) buildID(key int) int {
	r.idMu.Lock()
	defer r.idMu.Unlock()
	return r.ids[key]
}

// runRound sets up, drives and checks one round.
func runRound(w *workload, p *plan, opts roundOpts) (*roundResult, error) {
	r := &round{w: w, p: p, opts: opts, res: newRoundResult(opts.traced),
		abort: make(chan struct{}), relayMoved: make(chan struct{}, 1)}
	if opts.traced {
		r.tr = newTracer()
		r.drv, r.rdr, r.flw = r.tr.newLane(), r.tr.newLane(), r.tr.newLane()
	}
	r.recs = make([]*runRecord, len(p.builds))
	for i := range r.recs {
		r.recs[i] = newRunRecord()
	}
	r.ids = make([]int, len(p.builds))
	r.pollRng = rand.New(rand.NewSource(opts.seed ^ 0x5eed))
	r.lastRank = map[int]int{}

	if err := r.setup(); err != nil {
		r.teardown()
		return nil, err
	}
	defer r.teardown()
	r.res.setup = processCPU() - opts.startCPU
	if opts.setupOnly {
		return r.res, nil
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	locks0 := r.home.SchedLockAcquisitions()
	cpu0 := processCPU()
	t0 := time.Now()

	var wg sync.WaitGroup
	if w.follow {
		wg.Add(1)
		go func() { defer wg.Done(); r.follow() }()
	} else {
		r.polls = newPollQueue()
		wg.Add(1)
		go func() { defer wg.Done(); r.readLoop() }()
	}
	if err := r.drive(); err != nil {
		r.fail(err)
		// Unblock a follower reading a stream whose build never ends.
		for _, ts := range []*httptest.Server{r.gwTS, r.homeTS} {
			if ts != nil {
				ts.CloseClientConnections()
			}
		}
	}
	// Release the follower from builds that never posted (a failed
	// submit, already a failed check).
	for _, rec := range r.recs {
		rec.markFirst()
	}
	if r.polls != nil {
		r.polls.close()
	}
	wg.Wait()
	r.res.wall = time.Since(t0)
	r.res.cpu = processCPU() - cpu0
	r.res.lockAcq = r.home.SchedLockAcquisitions() - locks0 - r.benchLocks
	runtime.ReadMemStats(&mem1)
	r.res.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
	r.res.allocs = mem1.Mallocs - mem0.Mallocs
	r.res.gcCycles = mem1.NumGC - mem0.NumGC
	r.res.gcPauseNS = mem1.PauseTotalNs - mem0.PauseTotalNs
	if err := r.failed(); err != nil {
		return nil, err
	}
	r.harvest()
	return r.res, nil
}

// setup builds everything the first arrival needs: servers, tenants,
// armed nodes, the attached WAL, listeners, gateway and cluster join.
func (r *round) setup() error {
	r.clk = simclock.NewVirtual()
	cfg := accessserver.Config{
		Executors:      r.w.nodes,
		HeartbeatEvery: 5 * time.Second,
		OwnerRunCap:    r.w.runCap,
		WALSyncEvery:   5 * time.Second,
		SnapshotEvery:  time.Minute,
	}
	homeNodes := make([]string, r.w.nodes)
	for i := range homeNodes {
		homeNodes[i] = nodeName(r.w.prefix, i)
	}
	r.home = accessserver.New(r.clk, cfg)
	r.homeBE = newBackend(r, homeNodes)
	r.home.SetSpecBackend(r.homeBE)
	for t := 0; t < r.w.tenants; t++ {
		u, err := r.home.Users.Add(fmt.Sprintf("tenant%d", t), accessserver.RoleExperimenter)
		if err != nil {
			return err
		}
		r.tokens = append(r.tokens, u.Token)
	}
	for _, n := range homeNodes {
		if err := r.home.RegisterNode(benchNode{name: n}); err != nil {
			return err
		}
	}
	r.walDir = filepath.Join(r.opts.dir, fmt.Sprintf("wal-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(r.walDir, 0o755); err != nil {
		return err
	}
	st, err := store.Open(r.walDir)
	if err != nil {
		return err
	}
	r.st = st
	if _, err := r.home.AttachStore(st); err != nil {
		return err
	}
	r.hw = newHandlerWrap(r, r.home.Handler())
	r.homeTS = httptest.NewServer(r.hw)

	r.writer = newClient("drv")
	r.wplat = r.writer.platform(r.homeTS.URL, r.tokens[0])
	if r.w.follow {
		r.follower = newClient("flw")
		r.fdirect = r.follower.platform(r.homeTS.URL, r.tokens[0])
	} else {
		r.reader = newClient("rdr")
		r.rplat = r.reader.platform(r.homeTS.URL, r.tokens[0])
	}
	if r.w.gateway {
		r.gw = feedgw.New(r.homeTS.URL)
		r.gwTS = httptest.NewServer(r.gw.Handler())
		r.fgw = r.follower.platform(r.gwTS.URL, r.tokens[0])
	}
	if r.w.federated {
		return r.setupPeer(cfg)
	}
	return nil
}

// setupPeer starts the second server, joins the two with the cluster
// token, and waits until the home server's census lists every peer
// node, so the first routed submit can be placed.
func (r *round) setupPeer(cfg accessserver.Config) error {
	r.peer = accessserver.New(r.clk, cfg)
	peerNodes := make([]string, r.w.nodes)
	for i := range peerNodes {
		peerNodes[i] = nodeName(peerPrefix, i)
	}
	r.peerBE = newBackend(r, peerNodes)
	r.peer.SetSpecBackend(r.peerBE)
	for _, n := range peerNodes {
		if err := r.peer.RegisterNode(benchNode{name: n}); err != nil {
			return err
		}
	}
	r.peerTS = httptest.NewServer(r.peer.Handler())
	r.home.ConfigureCluster("home", r.homeTS.URL, clusterToken)
	r.peer.ConfigureCluster("peer", r.peerTS.URL, clusterToken)
	r.home.SetPeerRelay(r.relay)
	r.home.StartCluster(r.peerTS.URL)
	r.peer.StartCluster()
	for _, p := range r.home.Cluster().Peers() {
		if p.Name == "peer" && len(p.Nodes) == r.w.nodes {
			return nil
		}
	}
	return fmt.Errorf("cluster join: the home server does not list the peer's %d nodes", r.w.nodes)
}

// relay is the benchmark's PeerRelay: remote.Relay, timed, with the
// in-flight count the writer waits on before it steps.
func (r *round) relay(ctx context.Context, peerURL, token string, spec api.ExperimentSpec, sink accessserver.PeerSink) (*api.BuildStatus, error) {
	r.relays.Add(1)
	r.noteRelay()
	defer r.noteRelay()
	defer r.relays.Add(-1)
	ln := r.tr.newLane()
	ln.begin(layerCluster, "cluster.relay", spec.Workload.Params.Int("key", -1))
	t0 := time.Now()
	st, err := remote.Relay(ctx, peerURL, token, spec, sink)
	d := time.Since(t0)
	ln.end()
	r.res.addRelay(d)
	return st, err
}

// processCPU is the CPU time the whole process (server, generator and
// runtime) has used so far, user plus system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// platforms lists the generator's remote.Platform clients.
func (r *round) platforms() []*remote.Platform {
	var out []*remote.Platform
	for _, p := range []*remote.Platform{r.wplat, r.rplat, r.fdirect, r.fgw} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

func (r *round) teardown() {
	for _, c := range []*client{r.writer, r.reader, r.follower} {
		if c != nil {
			c.close()
		}
	}
	for _, ts := range []*httptest.Server{r.gwTS, r.homeTS, r.peerTS} {
		if ts != nil {
			ts.Close()
		}
	}
	if r.home != nil {
		r.home.StopCluster()
	}
	if r.peer != nil {
		r.peer.StopCluster()
	}
	if r.st != nil {
		r.st.Close()
	}
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

// roundDeadline bounds one round's wall time; a stalled round fails
// the run instead of hanging it.
const roundDeadline = 100 * time.Second

// drive plays the plan: advance the clock to each arrival, perform it
// over v1 HTTP, then step until every build is terminal.
func (r *round) drive() error {
	base := r.clk.Now()
	for i := range r.p.events {
		ev := &r.p.events[i]
		if err := r.advance(base.Add(ev.at)); err != nil {
			return err
		}
		if ev.keys == nil {
			r.cancel(ev)
			continue
		}
		r.submit(ev)
	}
	for !r.allTerminal() {
		if err := r.stepOnce(); err != nil {
			return err
		}
	}
	return nil
}

func (r *round) advance(t time.Time) error {
	for {
		r.settle()
		d, ok := r.clk.NextDeadline()
		if !ok || d.After(t) {
			break
		}
		if err := r.stepOnce(); err != nil {
			return err
		}
	}
	r.clk.RunUntil(t)
	return nil
}

// settle holds the writer while a relay is in transit, so routed builds
// start and finish at the same virtual instants in every run: every
// entered relay must have its peer run started, and every returned
// relay must have settled its home build.
func (r *round) settle() {
	if !r.w.federated {
		return
	}
	deadline := r.opts.start.Add(roundDeadline)
	for {
		if time.Now().After(deadline) {
			r.fail(fmt.Errorf("round stalled with %d relays in flight", r.relays.Load()))
			return
		}
		in := r.relays.Load()
		if in == r.peerBE.running.Load() {
			r.benchLocks++
			if int64(r.home.Running()) == r.homeBE.running.Load()+in {
				return
			}
			// A relay returned and its goroutine is settling the home
			// build; that takes microseconds and sends no notice.
			runtime.Gosched()
			continue
		}
		select {
		case <-r.relayMoved:
		case <-r.abort:
			return
		case <-time.After(time.Until(deadline)):
		}
	}
}

// noteRelay wakes the writer waiting in settle: a relay started or ended,
// or a run started or settled.
func (r *round) noteRelay() {
	select {
	case r.relayMoved <- struct{}{}:
	default:
	}
}

func (r *round) stepOnce() error {
	if time.Since(r.opts.start) > roundDeadline {
		return fmt.Errorf("round stalled: %d builds queued after %s", r.lastQueue, roundDeadline)
	}
	r.settle()
	settled := r.homeBE.settled.Load()
	r.drv.beginStep()
	ok := r.clk.Step()
	self := r.drv.endStep()
	if !ok {
		runtime.Gosched()
		return nil
	}
	r.lastQueue = r.home.QueueLength()
	r.benchLocks++
	r.res.observeStep(self, r.lastQueue, int(r.homeBE.settled.Load()-settled))
	for _, key := range r.homeBE.takeFinished() {
		r.analytics(key)
	}
	return r.failed()
}

// allTerminal reports, after the last arrival, whether every build has
// reached a terminal state: nothing queued, running or in relay.
func (r *round) allTerminal() bool {
	if r.lastQueue != 0 || r.homeBE.running.Load() != 0 || r.relays.Load() != 0 {
		return false
	}
	if r.peerBE != nil && r.peerBE.running.Load() != 0 {
		return false
	}
	r.settle()
	r.benchLocks += 2
	return r.home.QueueLength() == 0 && r.home.Running() == 0
}
