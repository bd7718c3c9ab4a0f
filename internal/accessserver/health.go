package accessserver

import (
	"fmt"
	"slices"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/simclock"
)

// Node lifecycle & fault tolerance. Vantage points are Raspberry Pis on
// home networks: they crash, hang and drop off SSH, and the paper's
// operational sibling ("Hot or not?") shows such failures are routine
// at fleet scale. The scheduler therefore tracks a health state per
// node, derived from heartbeats on the server clock:
//
//	online    recent heartbeat; dispatchable
//	suspect   one missed-beat window; no new dispatch, leases intact
//	offline   beats stopped; no dispatch, running leases break
//	draining  admin-requested; no new dispatch, running builds finish
//
// Health tracking is armed per node with MonitorNode (or the
// RegisterNode shorthand): a monitored node gets a heartbeat probe
// ticker on the server clock — deterministic under the virtual clock,
// since probes of in-process nodes (Pinger) run synchronously on the
// clock-dispatch goroutine. Nodes registered through the plain
// Nodes.Register path stay unmonitored and are treated as always
// online, the pre-health behavior every single-node test relies on.

// Health is a node's lifecycle state.
type Health int

// Health states.
const (
	HealthOnline Health = iota
	HealthSuspect
	HealthOffline
	HealthDraining
)

func (h Health) String() string {
	switch h {
	case HealthOnline:
		return "online"
	case HealthSuspect:
		return "suspect"
	case HealthOffline:
		return "offline"
	default:
		return "draining"
	}
}

// Pinger is implemented by node handles that can answer a cheap
// liveness probe without a network round trip (LocalNode, FlakyNode).
// The heartbeat ticker probes Pinger nodes synchronously on the clock
// goroutine — the deterministic path — and everything else (sshx
// remotes) asynchronously, one probe in flight per node.
type Pinger interface {
	Ping() error
}

// NodeStatus is the introspection snapshot of one node's lifecycle
// state, served by GET /api/v1/nodes/{name}.
type NodeStatus struct {
	Name          string
	Health        Health
	Monitored     bool
	Draining      bool
	Removed       bool
	LastHeartbeat time.Time
	// Running counts builds currently leased to the node; Queued counts
	// queued builds whose preferred node it is.
	Running int
	Queued  int
	// Devices is the cached device list of a monitored node (captured
	// at MonitorNode time) — status surfaces serve it instead of a live
	// list_devices round trip, which could hang on a sick node.
	Devices []string
	// Reliability telemetry feeding score-based placement: Beats
	// counts recorded heartbeats, Flaps counts returns from a
	// suspect/offline silence, and Failovers counts builds the
	// scheduler reclaimed from the node.
	Beats     int64
	Flaps     int64
	Failovers int64
}

// nodeRec is the server's per-node lifecycle record: heartbeat clock,
// drain/remove flags, the cached device list used for fallback
// placement, and the CPU probe cache that replaced the
// probe-while-holding-s.mu dispatch path. Guarded by s.mu.
type nodeRec struct {
	name      string
	monitored bool
	draining  bool
	removed   bool
	lastBeat  time.Time
	ticker    *simclock.Ticker
	pinging   bool // async liveness probe in flight
	running   int  // builds currently leased to this node
	// owner is the member who hosts this vantage point; while set, the
	// heartbeat stream accrues them §5 contribution credits for the
	// node's online time. owedHosting accumulates attested online time
	// between ledger flushes, so the ledger gets one coalesced entry
	// per contributionFlushEvery of hosting instead of one per beat.
	owner       string
	owedHosting time.Duration

	// Reliability telemetry for score-based placement. beats counts
	// recorded heartbeats; flaps counts beats that ended a
	// suspect/offline silence (the node "came back"); failovers counts
	// builds the scheduler reclaimed from this node via a lease break.
	// lastFlap is when the node last returned from silence — placement
	// treats a node inside one offline window of its last flap as
	// "recently suspect" and ranks it below a steady peer.
	beats     int64
	flaps     int64
	failovers int64
	lastFlap  time.Time

	// devices is the fallback-placement cache, refreshed when the node
	// is (re)monitored — device attach/detach between registrations is
	// rare and a stale entry only costs one failed run.
	devices []string

	// CPU probe cache for RequireLowCPU dispatch: the scheduler never
	// blocks on Exec("status") under s.mu; it reads this cache and
	// launches at most one probe per node to refresh it. cpuProbeAt
	// bounds the in-flight latch: a probe stuck on a half-open
	// connection is written off after OfflineAfter and a fresh one may
	// launch (the late result, if any, just refreshes the cache).
	cpuPct     float64
	cpuAt      time.Time
	cpuOK      bool
	cpuProbing bool
	cpuProbeAt time.Time
}

// recLocked resolves (creating on first sight) a node's lifecycle
// record. A new record is a new census row, so it marks the census
// dirty. Callers hold s.mu.
func (s *Server) recLocked(name string) *nodeRec {
	rec, ok := s.nodeRecs[name]
	if !ok {
		rec = &nodeRec{name: name, lastBeat: s.clock.Now()}
		s.nodeRecs[name] = rec
		s.mu.censusDirty = true
	}
	return rec
}

// nodeFacts are what the node-health rule reads about one node: its
// lifecycle flags, its last beat, and whether the registry holds it
// right now (a lifecycle record does not know that; the caller looks it
// up).
type nodeFacts struct {
	monitored, draining, removed, registered bool
	lastBeat                                 time.Time
}

// facts are rec's rule inputs given the node's registry membership. A
// nil rec (never recorded) is an unmonitored, undrained node.
func (rec *nodeRec) facts(registered bool) nodeFacts {
	if rec == nil {
		return nodeFacts{registered: registered}
	}
	return nodeFacts{monitored: rec.monitored, draining: rec.draining, removed: rec.removed,
		registered: registered, lastBeat: rec.lastBeat}
}

// health is the one node-health rule. Placement, aging, the lease
// watchdog, the census, blab_nodes and NodeHealth all call it:
//
//   - an unregistered node is offline, tombstoned or not; a registered
//     node overrides its removal tombstone;
//   - offline outranks draining: a node that dies mid-drain must still
//     break its build leases, so draining only labels the alive states;
//   - a monitored node turns suspect after SuspectAfter of silence and
//     offline after OfflineAfter; an unmonitored one stays online.
func (f nodeFacts) health(cfg *Config, now time.Time) Health {
	silence := now.Sub(f.lastBeat)
	switch {
	case !f.registered, f.monitored && silence >= cfg.OfflineAfter:
		return HealthOffline
	case f.draining:
		return HealthDraining
	case !f.monitored, silence < cfg.SuspectAfter:
		return HealthOnline
	}
	return HealthSuspect
}

// tombstoned reports whether the removal tombstone stands: the node was
// removed and nothing has registered it since.
func (f nodeFacts) tombstoned() bool { return f.removed && !f.registered }

// healthLocked judges a live node: its registry handle (nil when
// unregistered) and its health at now by the one rule, given rec, its
// lifecycle record (nil: never recorded). Placement, aging, the lease
// watchdog and heartbeats all ask it. Callers hold s.mu.
func (s *Server) healthLocked(name string, rec *nodeRec, now time.Time) (Node, Health) {
	n, err := s.Nodes.Get(name)
	return n, rec.facts(err == nil).health(&s.cfg, now)
}

// MonitorNode arms heartbeat-driven health tracking for a registered
// node: an initial beat is recorded, the device list is cached for
// fallback placement, and a probe ticker starts on the server clock.
// Idempotent: re-arming a monitored node only refreshes its device
// cache.
func (s *Server) MonitorNode(name string) error {
	if _, err := s.Nodes.Get(name); err != nil {
		return err
	}
	// Cache the device list outside s.mu: this is the one network round
	// trip of monitoring, paid at arm time, never at dispatch time.
	// Fallback placement depends on this cache, so a node that cannot
	// enumerate its devices is not silently armed with an empty one.
	devices, err := s.Nodes.Devices(name)
	if err != nil {
		return fmt.Errorf("monitoring %q: listing devices: %w", name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.recLocked(name)
	rec.lastBeat = s.clock.Now()
	s.mu.censusDirty = true
	if rec.monitored {
		// Already armed: only a changed device list is new state. It is
		// committed, drain flag intact, so a restart restores it; an
		// unchanged list adds no WAL record.
		if !slices.Equal(rec.devices, devices) {
			s.commitLocked(store.Record{T: store.TNodeMonitored, Node: &store.NodeRec{
				Name: name, Monitored: true, Draining: rec.draining, Devices: devices,
			}})
		}
		return nil
	}
	// A fresh arm ends any previous drain or removal lifecycle:
	// re-registering a serviced node must put it back in rotation, not
	// leave it silently undispatchable behind a stale flag.
	s.commitLocked(store.Record{T: store.TNodeMonitored, Node: &store.NodeRec{
		Name: name, Owner: rec.owner, Monitored: true, Devices: devices,
	}})
	rec.ticker = simclock.NewTicker(s.clock, s.cfg.HeartbeatEvery, func(time.Time) {
		s.probeNode(name)
	})
	return nil
}

// SetNodeOwner records which member hosts a vantage point; their ledger
// accrues contribution credits for the node's heartbeat-attested online
// time ("" stops accrual). Hosting time accrued but not yet flushed is
// credited to the outgoing owner first — a transfer must not hand the
// predecessor's earned time to the successor. Programmatic deployment
// configuration, like MonitorNode.
func (s *Server) SetNodeOwner(name, owner string) {
	s.mu.Lock()
	rec := s.recLocked(name)
	if prev := rec.owner; prev != owner {
		s.flushHostingLocked(rec, prev)
	}
	s.commitLocked(store.Record{T: store.TNodeOwner, Name: name, Owner: owner})
	s.mu.Unlock()
}

// RegisterNode registers a node and arms health monitoring — the
// deployment path. (Nodes.Register alone keeps the legacy
// always-online semantics.)
func (s *Server) RegisterNode(n Node) error {
	if err := s.Nodes.Register(n); err != nil {
		return err
	}
	if err := s.MonitorNode(n.Name()); err != nil {
		return err
	}
	s.dispatch()
	return nil
}

// probeNode is one heartbeat probe. Pinger nodes answer synchronously
// (deterministic under the virtual clock); others are probed on a
// goroutine with at most one probe in flight, so a hung node can never
// stall the ticker — its beats simply stop and it ages into suspect
// and then offline.
func (s *Server) probeNode(name string) {
	n, err := s.Nodes.Get(name)
	if err != nil {
		return // unregistered: no beat
	}
	if p, ok := n.(Pinger); ok {
		if p.Ping() == nil {
			s.Heartbeat(name)
		}
		return
	}
	s.mu.Lock()
	rec := s.recLocked(name)
	if rec.pinging {
		s.mu.Unlock()
		return
	}
	rec.pinging = true
	s.mu.Unlock()
	go func() {
		_, err := n.Exec("ping")
		s.mu.Lock()
		rec.pinging = false
		s.mu.Unlock()
		if err == nil {
			s.Heartbeat(name)
		}
	}()
}

// contributionFlushEvery is how much attested hosting time accumulates
// before it lands in the ledger as one coalesced contribution entry
// (15 minutes = 1 credit at ContributionRate). Per-beat entries would
// grow the ledger history, the WAL and every snapshot by thousands of
// rows per node-day for no audit value.
const contributionFlushEvery = 15 * time.Minute

// flushHostingLocked credits a node's accrued hosting time to owner
// and zeroes the accrual, writing the single combined WAL record —
// zeroing and credit replay together or not at all, so a crash can
// neither double-pay nor drop one half. Callers hold s.mu (the lock
// order snapshot compaction cuts under).
func (s *Server) flushHostingLocked(rec *nodeRec, owner string) {
	if owner == "" || rec.owedHosting <= 0 {
		rec.owedHosting = 0 // nobody to credit: the accrual lapses
		return
	}
	s.commitLocked(store.Record{T: store.TNodeHostingFlush, Name: rec.name, Owner: owner, AtNS: int64(rec.owedHosting)})
}

// Heartbeat records a liveness beat for a node on the server clock.
// A beat that brings the node back online re-kicks the queue so its
// pending builds dispatch immediately; steady-state beats of an
// already-online node change no placement decision and skip the scan.
// For owned nodes each beat also accrues the owner's §5 contribution
// time: the time since the previous beat, attested online time,
// capped at the offline window so a node that vanished for a week does
// not earn the gap when it returns. Accrued time is credited to the
// ledger in contributionFlushEvery lumps.
func (s *Server) Heartbeat(name string) {
	s.m.heartbeats.Inc()
	now := s.clock.Now()
	s.mu.Lock()
	rec := s.recLocked(name)
	_, h := s.healthLocked(name, rec, now)
	wasOnline := h == HealthOnline
	rec.beats++
	// A beat that ends a silence window is a flap: the node was
	// suspect or offline (by missed beats — drain and removal are
	// admin states, not flaps) and came back. Placement holds that
	// against it — sharply while recent, lightly forever via the
	// lifetime count.
	if rec.monitored && now.Sub(rec.lastBeat) >= s.cfg.SuspectAfter {
		rec.flaps++
		rec.lastFlap = now
	}
	if rec.owner != "" && rec.monitored {
		if d := now.Sub(rec.lastBeat); d > 0 {
			if d > s.cfg.OfflineAfter {
				d = s.cfg.OfflineAfter
			}
			rec.owedHosting += d
		}
		if rec.owedHosting >= contributionFlushEvery {
			s.flushHostingLocked(rec, rec.owner)
		}
	}
	rec.lastBeat = now
	pending := len(s.queue)
	s.mu.censusDirty = true
	s.mu.Unlock()
	if pending > 0 && !wasOnline {
		s.dispatch()
	}
}

// DrainNode stops new dispatch to a node while letting its running
// builds finish — the maintenance workflow before unplugging a Pi. The
// user needs PermManageNodes.
func (s *Server) DrainNode(user *User, name string) error {
	if !Allowed(user.Role, PermManageNodes) {
		return fmt.Errorf("%w: %s (%s) may not manage nodes", ErrForbidden, user.Name, user.Role)
	}
	if _, err := s.Nodes.Get(name); err != nil {
		return err
	}
	s.mu.Lock()
	s.commitLocked(store.Record{T: store.TNodeDrain, Name: name, Draining: true})
	s.mu.Unlock()
	return nil
}

// UndrainNode reopens a drained node for dispatch. The user needs
// PermManageNodes.
func (s *Server) UndrainNode(user *User, name string) error {
	if !Allowed(user.Role, PermManageNodes) {
		return fmt.Errorf("%w: %s (%s) may not manage nodes", ErrForbidden, user.Name, user.Role)
	}
	if _, err := s.Nodes.Get(name); err != nil {
		return err
	}
	s.mu.Lock()
	s.commitLocked(store.Record{T: store.TNodeDrain, Name: name, Draining: false})
	s.mu.Unlock()
	s.dispatch()
	return nil
}

// RemoveNode unregisters a node: new dispatch stops immediately,
// running builds finish (their lease is not broken — removal is an
// admin decision, not a failure), and queued builds that were pinned to
// it fail with ErrNodeLost unless fallback placement can move them.
// The user needs PermManageNodes.
func (s *Server) RemoveNode(user *User, name string) error {
	if !Allowed(user.Role, PermManageNodes) {
		return fmt.Errorf("%w: %s (%s) may not manage nodes", ErrForbidden, user.Name, user.Role)
	}
	if err := s.Nodes.Remove(name); err != nil {
		return err
	}
	s.mu.Lock()
	rec := s.recLocked(name)
	if rec.ticker != nil {
		rec.ticker.Stop()
		rec.ticker = nil
	}
	// Final contribution flush: hosting time accrued below the lump
	// threshold still belongs to the owner. Removal then ends the drain
	// lifecycle too: a future registration of this name starts fresh
	// instead of inheriting an undispatchable state.
	s.flushHostingLocked(rec, rec.owner)
	s.commitLocked(store.Record{T: store.TNodeRemoved, Name: name})
	kept := s.queue[:0]
	for _, b := range s.queue {
		cons, _, err := s.pipelineLocked(b)
		if err == nil && cons.Node == name && !cons.Fallback {
			// terminateLocked closes the feed through the hub (a leaf
			// lock, safe under s.mu) — no post-unlock close list.
			s.terminateLocked(b, fmt.Errorf("%w: node %q removed while build %d was queued", ErrNodeLost, name, b.ID))
			continue
		}
		kept = append(kept, b)
	}
	s.queue = kept
	s.mu.Unlock()
	s.dispatch() // fallback builds re-place onto survivors
	return nil
}

// NodeHealth reports a node's served lifecycle snapshot — the census
// view GET /api/v1/nodes/{name} serves, read without the scheduler
// lock. Unregistered, never-seen nodes report offline with a zero
// LastHeartbeat.
func (s *Server) NodeHealth(name string) NodeStatus {
	st, _, _ := s.servedNode(name, s.clock.Now())
	return st
}
