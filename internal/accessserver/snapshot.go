package accessserver

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/api"
)

// nodeCensusEntry is one node's published lifecycle snapshot plus the
// rule inputs NodeStatus does not carry: registry membership as of
// publication and the raw removal tombstone. Health and Removed are
// derived on read (see view).
type nodeCensusEntry struct {
	NodeStatus
	registered bool
	removed    bool
}

// readPlane is the server's snapshot-served read side: immutable
// copy-on-write views of build status, the node census and campaign
// membership, republished by the scheduler at every state transition
// while it already holds s.mu. The hot GET routes (build status, node
// list, campaign status) load these views with atomic pointer reads and
// never acquire the scheduler lock, so status-poll floods are lock-free
// with respect to dispatch.
//
// Consistency: publishers run inside the scheduler's critical sections,
// so snapshots are installed in transition order — a client that
// observed a build running can never later read it queued
// (monotonic reads). The write lock below only serializes the
// copy-on-write map swaps; readers never take it.
type readPlane struct {
	// wmu serializes writers (map copy-and-swap). It is a leaf lock by
	// the same rule as the feed hub: publishers may hold s.mu and b.mu,
	// the plane never calls out or takes another lock.
	wmu sync.Mutex

	// builds maps build id -> cell; the map itself is copy-on-write
	// (adds at enqueue, deletes at retention), each cell's status is an
	// atomic pointer republished in place on every transition.
	builds atomic.Pointer[map[int]*buildCell]
	// nodes is the published node census, replaced wholesale.
	nodes atomic.Pointer[[]nodeCensusEntry]
	// camps maps campaign id -> member build ids (fixed at submission;
	// the map is copy-on-write for add/evict).
	camps atomic.Pointer[map[int][]int]
	// highCamp is the highest campaign id ever issued, for the
	// expired-vs-unknown distinction after eviction.
	highCamp atomic.Int64
}

type buildCell struct {
	st atomic.Pointer[api.BuildStatus]
}

func newReadPlane() *readPlane {
	rp := &readPlane{}
	b := make(map[int]*buildCell)
	rp.builds.Store(&b)
	c := make(map[int][]int)
	rp.camps.Store(&c)
	n := []nodeCensusEntry{}
	rp.nodes.Store(&n)
	return rp
}

// publishBuild installs st as build st.ID's served status. Existing
// cells are updated in place (one atomic store); new ids copy the map.
func (rp *readPlane) publishBuild(st api.BuildStatus) {
	cur := *rp.builds.Load()
	if cell, ok := cur[st.ID]; ok {
		cell.st.Store(&st)
		return
	}
	rp.wmu.Lock()
	defer rp.wmu.Unlock()
	cur = *rp.builds.Load()
	if cell, ok := cur[st.ID]; ok {
		cell.st.Store(&st)
		return
	}
	next := make(map[int]*buildCell, len(cur)+1)
	for id, c := range cur {
		next[id] = c
	}
	cell := &buildCell{}
	cell.st.Store(&st)
	next[st.ID] = cell
	rp.builds.Store(&next)
}

// removeBuild evicts a build's served status (retention expiry).
func (rp *readPlane) removeBuild(id int) {
	rp.wmu.Lock()
	defer rp.wmu.Unlock()
	cur := *rp.builds.Load()
	if _, ok := cur[id]; !ok {
		return
	}
	next := make(map[int]*buildCell, len(cur)-1)
	for bid, c := range cur {
		if bid != id {
			next[bid] = c
		}
	}
	rp.builds.Store(&next)
}

// buildStatus returns the served status for id, if published.
func (rp *readPlane) buildStatus(id int) (api.BuildStatus, bool) {
	if cell, ok := (*rp.builds.Load())[id]; ok {
		return *cell.st.Load(), true
	}
	return api.BuildStatus{}, false
}

// publishCampaign records a campaign's member build ids (fixed at
// submission) and raises the campaign high-water mark.
func (rp *readPlane) publishCampaign(id int, builds []int) {
	rp.wmu.Lock()
	defer rp.wmu.Unlock()
	cur := *rp.camps.Load()
	next := make(map[int][]int, len(cur)+1)
	for cid, b := range cur {
		next[cid] = b
	}
	next[id] = append([]int(nil), builds...)
	rp.camps.Store(&next)
	if int64(id) > rp.highCamp.Load() {
		rp.highCamp.Store(int64(id))
	}
}

// removeCampaign evicts a campaign (its last member expired).
func (rp *readPlane) removeCampaign(id int) {
	rp.wmu.Lock()
	defer rp.wmu.Unlock()
	cur := *rp.camps.Load()
	if _, ok := cur[id]; !ok {
		return
	}
	next := make(map[int][]int, len(cur)-1)
	for cid, b := range cur {
		if cid != id {
			next[cid] = b
		}
	}
	rp.camps.Store(&next)
}

// campaign returns a campaign's member ids, if published.
func (rp *readPlane) campaign(id int) ([]int, bool) {
	b, ok := (*rp.camps.Load())[id]
	return b, ok
}

// campaignExpired reports whether id was issued but has been evicted.
func (rp *readPlane) campaignExpired(id int) bool {
	return id >= 1 && int64(id) <= rp.highCamp.Load()
}

// publishNodes replaces the served node census.
func (rp *readPlane) publishNodes(list []nodeCensusEntry) {
	rp.nodes.Store(&list)
}

// nodeList returns the served node census.
func (rp *readPlane) nodeList() []nodeCensusEntry {
	return *rp.nodes.Load()
}

// node returns one census entry by name.
func (rp *readPlane) node(name string) (nodeCensusEntry, bool) {
	for _, e := range *rp.nodes.Load() {
		if e.Name == name {
			return e, true
		}
	}
	return nodeCensusEntry{}, false
}

// view is e as served given the node's registry membership: health
// by the one rule at now — health is time-derived, so a silent node
// ages into suspect and offline without any transition republishing the
// census — and Removed while the tombstone stands.
func (s *Server) view(e nodeCensusEntry, registered bool, now time.Time) NodeStatus {
	f := nodeFacts{monitored: e.Monitored, draining: e.Draining, removed: e.removed,
		registered: registered, lastBeat: e.LastHeartbeat}
	st := e.NodeStatus
	st.Health = f.health(&s.cfg, now)
	st.Removed = f.tombstoned()
	return st
}

// servedNode is the one served view of a node, shared by NodeHealth
// and both node routes (blab_nodes judges each census entry the same
// way): its census entry — a bare one for a
// registered node the census has not caught up with — judged with
// registry membership checked live, on the registry's own lock (regErr
// is the registry's answer). It never takes s.mu. known is false for a
// name neither registered nor in the census.
func (s *Server) servedNode(name string, now time.Time) (st NodeStatus, regErr error, known bool) {
	_, regErr = s.Nodes.Get(name)
	e, known := s.reads.node(name)
	if !known {
		e = nodeCensusEntry{NodeStatus: NodeStatus{Name: name}}
	}
	return s.view(e, regErr == nil, now), regErr, known || regErr == nil
}

// servedDevices is a served node's device list. Monitored nodes serve
// the cached list: the node routes list the whole fleet and diagnose
// sick nodes, so they must never block on a live list_devices round
// trip to a hung one.
func (s *Server) servedDevices(st NodeStatus) []string {
	if st.Monitored {
		return st.Devices
	}
	devs, _ := s.Nodes.Devices(st.Name)
	return devs
}

// publishBuildLocked republishes b's served wire-form status after a
// state transition. Callers hold s.mu but never b.mu (the snapshot
// reads b's state through its own accessors).
func (s *Server) publishBuildLocked(b *Build) {
	s.reads.publishBuild(buildStatus(b))
}

// publishNodesLocked rebuilds and republishes the node census. It runs
// from the scheduler lock's Unlock, once per critical section that
// marked the census dirty: heartbeats, node transitions and queue
// movement (queued counts) change what GET /nodes reports. One queue
// scan covers every node. Callers hold s.mu but never any b.mu.
func (s *Server) publishNodesLocked() {
	queued := make(map[string]int)
	for _, b := range s.queue {
		if cons, _, err := s.pipelineLocked(b); err == nil {
			queued[cons.Node]++
		}
	}
	names := map[string]bool{}
	for _, n := range s.Nodes.List() {
		names[n] = true
	}
	for n := range s.nodeRecs {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	list := make([]nodeCensusEntry, 0, len(sorted))
	for _, n := range sorted {
		_, err := s.Nodes.Get(n)
		e := nodeCensusEntry{NodeStatus: NodeStatus{Name: n, Queued: queued[n]}, registered: err == nil}
		if rec := s.nodeRecs[n]; rec != nil {
			e.Monitored = rec.monitored
			e.Draining = rec.draining
			e.LastHeartbeat = rec.lastBeat
			e.Running = rec.running
			e.Devices = append([]string(nil), rec.devices...)
			e.Beats = rec.beats
			e.Flaps = rec.flaps
			e.Failovers = rec.failovers
			e.removed = rec.removed
		}
		list = append(list, e)
	}
	s.reads.publishNodes(list)
}
