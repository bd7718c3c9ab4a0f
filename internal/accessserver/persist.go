package accessserver

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"slices"
	"sort"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// Persistence glue: every committed transition appends its record to
// an optional write-ahead log (internal/accessserver/store), and
// AttachStore rebuilds the server from snapshot+WAL after a restart.
// The store package only frames records durably; recovery here is two
// steps:
//
//   - the fold: the snapshot rows and then the WAL records go through
//     applyLocked (transition.go), the same function the live path
//     commits through, with the observers off. The folded state is the
//     state the crashed server had at its last durable record.
//   - the restart policy: what a restart does to that state, below.
//
// Recovery semantics, in one place:
//
//   - Users come back with their original tokens; ledger balances and
//     histories replay exactly.
//   - Jobs come back with metadata, constraints, revision and approval
//     but WITHOUT their pipeline body (a Go closure does not survive a
//     process): Submit answers ErrConflict until EditJob reinstalls
//     one. Spec builds are unaffected — their declarative wire spec is
//     in the log and recompiles through the SpecBackend.
//   - Node lifecycle state (drain flags, removal tombstones, owner,
//     cached devices) survives; the live Node handles do not, so the
//     hosting process re-registers its nodes at startup, before
//     AttachStore.
//   - Builds that were queued at the crash re-enqueue in ID order.
//   - Builds that were running at the crash go through the same
//     reclaim/requeue path a broken node lease takes: a failover event
//     on the feed, a retry if the budget allows, a typed ErrNodeLost
//     failure otherwise — so an interrupted campaign completes after
//     restart.
//   - Finished builds come back with byte-identical wire status
//     (modulo the explicit `recovered` marker); their feed replay and
//     workspace artifacts are gone, which is the same contract as a
//     retention expiry, only earlier.
//
// Call order matters: install the SpecBackend and register the nodes
// first, then AttachStore, then create any bootstrap users (restore
// replaces same-named users created earlier, which is what a daemon
// that unconditionally creates "admin" on boot wants).

// RecoveryStats summarizes the state AttachStore reconstructed.
type RecoveryStats struct {
	Users    int // users known after replay
	Jobs     int // jobs restored from the store
	Nodes    int // node lifecycle records after replay
	Builds   int // build records recovered
	Requeued int // queued at crash, back in the queue
	Resumed  int // running at crash, routed through failover requeue
	Failed   int // running at crash, retry budget spent (or recompile failed)
	Ledger   int // ledger entries in the replayed histories
}

// logStore appends one record to the attached store (no-op without
// one). storeMu is a leaf mutex: callers may hold s.mu and/or b.mu.
//
// A failed append (full disk, I/O error) latches storeFailed: further
// appends are suppressed — a WAL with a silent gap replays later
// records onto earlier state, which is worse than no WAL — and the
// operator gets one loud log line. The next successful compaction
// writes a complete snapshot and lifts the latch.
func (s *Server) logStore(rec store.Record) {
	s.storeMu.Lock()
	if s.store != nil && !s.storeFailed {
		if err := s.store.Append(rec); err != nil {
			s.storeFailed = true
			s.m.appendErrors++
			log.Printf("accessserver: WAL append failed, durability suspended until a snapshot succeeds: %v", err)
			s.slogger().LogAttrs(context.Background(), slog.LevelError, "wal append failed, durability suspended",
				slog.String("error", err.Error()))
		}
	}
	s.storeMu.Unlock()
}

// logStoreBatch appends a group of records in one WAL write (one frame
// assembly, one syscall), with the same latch semantics as logStore.
// The batch is all-or-nothing in the common case — a partial write is
// a torn tail the next replay truncates — so callers use it for record
// groups that describe one logical mutation (a campaign and its
// builds).
func (s *Server) logStoreBatch(recs []store.Record) {
	if len(recs) == 0 {
		return
	}
	s.storeMu.Lock()
	if s.store != nil && !s.storeFailed {
		if err := s.store.AppendBatch(recs); err != nil {
			s.storeFailed = true
			s.m.appendErrors++
			log.Printf("accessserver: WAL batch append failed, durability suspended until a snapshot succeeds: %v", err)
			s.slogger().LogAttrs(context.Background(), slog.LevelError, "wal batch append failed, durability suspended",
				slog.String("error", err.Error()))
		}
	}
	s.storeMu.Unlock()
}

// AttachStore replays the store's snapshot+WAL into the server and
// turns on write-ahead logging for every mutation from here on. It
// must run before the server takes traffic: after the SpecBackend is
// installed and the deployment's nodes are registered (so queued spec
// builds can recompile and dispatch), and at most once.
func (s *Server) AttachStore(st *store.Store) (RecoveryStats, error) {
	s.storeMu.Lock()
	if s.store != nil {
		s.storeMu.Unlock()
		return RecoveryStats{}, fmt.Errorf("accessserver: a store is already attached")
	}
	s.storeMu.Unlock()

	if v, ok := s.clock.(*simclock.Virtual); ok {
		release := v.Hold()
		defer release()
	}
	snap, recs := st.Load()

	s.mu.Lock()
	// A job the daemon already re-created this boot (with a body) wins
	// over its record, and a node it already monitors keeps its fresh
	// device list.
	bootJobs := s.jobs
	s.jobs = make(map[string]*Job)
	armed := map[string][]string{}
	for name, rec := range s.nodeRecs {
		if rec.monitored {
			armed[name] = rec.devices
		}
	}
	s.foldLocked(snap, recs)
	var stats RecoveryStats
	for name := range s.jobs {
		if bootJobs[name] == nil {
			stats.Jobs++
		}
	}
	for name, j := range bootJobs {
		s.jobs[name] = j
	}
	// The transitions the restart policy causes group-commit into one
	// WAL write once the store is live, so a second crash replays them.
	s.beginBatchLocked()
	s.restartLocked(&stats, armed)
	pending := s.batch
	s.batching, s.batch = false, nil
	s.mu.Unlock()
	stats.Users = len(s.Users.List())
	stats.Ledger = s.Ledger.entries()

	// Go live: install the store and the observation hooks, flush the
	// transitions recovery itself caused, arm periodic compaction.
	s.storeMu.Lock()
	s.store = st
	appendErr := st.AppendBatch(pending)
	s.storeMu.Unlock()
	if appendErr != nil {
		// Latch the failure so a caller that continues anyway cannot
		// append later records onto a WAL with a silent gap.
		s.storeMu.Lock()
		s.storeFailed = true
		s.storeMu.Unlock()
		return stats, fmt.Errorf("accessserver: flushing recovery records: %w", appendErr)
	}
	s.Users.setHook(func(u User, removed bool) {
		if removed {
			s.logStore(store.Record{T: store.TUserRemoved, Name: u.Name})
			return
		}
		s.logStore(store.Record{T: store.TUserAdded, User: &store.UserRec{
			Name: u.Name, Role: int(u.Role), Token: u.Token,
		}})
	})
	s.Ledger.setHook(func(user string, e LedgerEntry) {
		s.logStore(store.Record{T: store.TLedger, Entry: &store.LedgerRec{
			User: user, Delta: e.Delta, Reason: e.Reason,
		}})
	})
	s.snapTicker = simclock.NewTicker(s.clock, s.cfg.SnapshotEvery, func(time.Time) {
		s.maybeCompact()
	})
	// Group commit: appends land in the page cache immediately and are
	// fsynced on this cadence, bounding what a power loss (not a mere
	// process crash) can take to the last WALSyncEvery window instead
	// of the last snapshot.
	s.syncTicker = simclock.NewTicker(s.clock, s.cfg.WALSyncEvery, func(time.Time) {
		s.syncStore()
	})

	// An immediate snapshot makes state that predates the attach —
	// bootstrap users, jobs and node registrations a daemon sets up
	// before calling AttachStore — durable right away instead of at the
	// first periodic compaction.
	if err := s.CompactStore(); err != nil {
		return stats, err
	}
	s.dispatch()
	return stats, nil
}

// foldLocked is recovery's fold step: the snapshot rows, then the WAL
// records after them, through applyLocked with the observers off — no
// WAL append, no status republish. Callers hold s.mu.
func (s *Server) foldLocked(snap *store.Snapshot, recs []store.Record) {
	if snap != nil {
		for i := range snap.Users {
			s.applyLocked(store.Record{T: store.TUserAdded, User: &snap.Users[i]})
		}
		for i := range snap.Peers {
			s.applyLocked(store.Record{T: store.TPeerJoined, Peer: &snap.Peers[i]})
		}
		for i := range snap.Jobs {
			s.applyLocked(store.Record{T: store.TJobPut, Job: &snap.Jobs[i]})
		}
		for i := range snap.Nodes {
			s.applyLocked(store.Record{T: store.TNodeMonitored, Node: &snap.Nodes[i]})
		}
		// Campaigns before builds, so running members find their rec.
		for i := range snap.Campaigns {
			s.applyLocked(store.Record{T: store.TCampaign, Campaign: &snap.Campaigns[i]})
		}
		for i := range snap.Builds {
			s.applyLocked(store.Record{T: store.TBuildQueued, Build: &snap.Builds[i]})
		}
		for user, entries := range snap.Ledger {
			history := make([]LedgerEntry, len(entries))
			balance := 0.0
			for i, e := range entries {
				history[i] = LedgerEntry{Delta: e.Delta, Reason: e.Reason}
				balance += e.Delta
			}
			// Snapshots predating the Balances field: the sum of the
			// (then-unbounded) history is the balance.
			if bal, ok := snap.Balances[user]; ok {
				balance = bal
			}
			s.Ledger.restore(user, balance, history)
		}
		s.nextID = max(s.nextID, snap.NextBuild)
		s.nextCampaign = max(s.nextCampaign, snap.NextCampaign)
	}
	for _, rec := range recs {
		s.applyLocked(rec)
	}
}

// restartLocked is recovery's policy step over the folded state: nodes
// re-arm monitoring, every build gets a fresh feed epoch, and builds the
// crash interrupted settle or re-enqueue. armed lists the nodes the
// daemon monitored before the attach, with their fresh device lists.
// Callers hold s.mu, inside a group commit.
func (s *Server) restartLocked(stats *RecoveryStats, armed map[string][]string) {
	now := s.clock.Now()
	// Sorted order matters: the virtual clock breaks equal-deadline
	// ties by registration sequence, so ticker arming must not follow
	// map iteration order or recovery would stop being deterministic.
	nodeNames := make([]string, 0, len(s.nodeRecs))
	for name := range s.nodeRecs {
		nodeNames = append(nodeNames, name)
	}
	sort.Strings(nodeNames)
	for _, name := range nodeNames {
		rec := s.nodeRecs[name]
		rec.lastBeat = now // the node proves itself alive again from here
		if devices, ok := armed[name]; ok {
			// Monitored this boot: the arm wins over the folded row, and
			// is committed so a second crash replays it.
			if !rec.monitored || rec.removed || !slices.Equal(rec.devices, devices) {
				s.commitLocked(store.Record{T: store.TNodeMonitored, Node: &store.NodeRec{
					Name: name, Monitored: true, Draining: rec.draining, Devices: devices,
				}})
			}
			continue
		}
		if rec.monitored && rec.ticker == nil {
			rec.ticker = simclock.NewTicker(s.clock, s.cfg.HeartbeatEvery, func(time.Time) {
				s.probeNode(name)
			})
		}
	}
	stats.Nodes = len(nodeNames)
	s.mu.censusDirty = true // every node's last beat moved

	ids := make([]int, 0, len(s.builds))
	for id := range s.builds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	stats.Builds = len(ids)
	for _, id := range ids {
		b := s.builds[id]
		b.recovered = true
		// Every recovery hands the build a fresh feed, so the epoch
		// moves: clients' resume cursors (and feed-derived aggregates)
		// from before the restart are void — including across a second
		// restart, which bumps it again.
		b.feedEpoch++
		b.feed = s.hub.Create(b.ID, b.feedEpoch)
		if b.queuedAt.IsZero() {
			b.queuedAt = now
		}
		if !b.state.active() {
			s.hub.Close(b.ID)
			s.scheduleRetention(b)
			continue
		}
		// A cancel was requested before the crash but the build never
		// settled: it settles as aborted — rerunning (and charging) a
		// canceled experiment would be worse than the lost teardown.
		if b.cancelWant {
			s.settleLocked(b, StateAborted, nil, "build aborted: cancel requested before the server restart")
			continue
		}
		// Queued or running at the crash: the build must run again.
		// Recompile spec builds through the backend; job builds resolve
		// from the job store at dispatch (and fail fast there if the
		// job's body did not survive).
		if err := s.recompileLocked(b); err != nil {
			err = fmt.Errorf("build %d unrecoverable after restart: %w", b.ID, err)
			s.settleLocked(b, StateFailure, err, "build failed: "+err.Error())
			stats.Failed++
			continue
		}
		if b.state == StateRunning {
			// The crash broke the lease: route through the failover
			// contract. The interrupted attempt's work is gone, so the
			// requeue skips the usual backoff — the restart already cost
			// more than any backoff would.
			reason := fmt.Sprintf("access server restarted while attempt %d ran on %q", b.attempt, b.nodeName)
			b.feed.PostEvent(api.BuildEvent{
				Build: b.ID,
				Node:  b.nodeName,
				Phase: api.EventFailover,
				AtNS:  now.UnixNano(),
				Error: reason,
			})
			if b.retries >= s.cfg.MaxRetries {
				s.settleLocked(b, StateFailure,
					fmt.Errorf("%w: %s; retry budget (%d) spent", ErrNodeLost, reason, s.cfg.MaxRetries),
					fmt.Sprintf("build lost: %s; retry budget (%d) spent", reason, s.cfg.MaxRetries))
				stats.Failed++
				continue
			}
			retries := b.retries + 1
			s.m.failoverRequeues++
			b.pendingReason = fmt.Sprintf("%s; retry %d/%d", reason, retries, s.cfg.MaxRetries)
			b.schedReason = b.pendingReason // s.mu held; keep the dispatch shadow in sync
			fmt.Fprintf(&b.log, "build requeued: %s (retry %d/%d)\n", reason, retries, s.cfg.MaxRetries)
			s.commitLocked(store.Record{T: store.TBuildFailover, BuildID: b.ID,
				Retries: retries, Reason: reason, AtNS: now.UnixNano()})
			stats.Resumed++
		} else {
			stats.Requeued++
		}
		s.queue = append(s.queue, b)
		b.agingTimer = s.clock.AfterFunc(s.cfg.PendingTimeout, func() { s.checkAging(b) })
	}

	// Prime the read plane and the feed-plane high-water mark with the
	// recovered world before the lock drops: ids whose records expired
	// before the restart must resolve as expired (not unknown), and the
	// snapshot routes must serve the recovered state from the first
	// request rather than waiting for the next transition to publish.
	s.hub.SetHighWater(s.nextID - 1)
	for _, b := range s.builds {
		s.publishBuildLocked(b)
	}
	if s.nextCampaign > 1 {
		s.reads.highCamp.Store(int64(s.nextCampaign - 1))
	}
}

// recompileLocked reinstalls a recovered spec build's pipeline through
// the SpecBackend. Callers hold s.mu.
func (s *Server) recompileLocked(b *Build) error {
	if b.wireSpec == nil {
		return nil
	}
	if s.specs == nil {
		return fmt.Errorf("%w: no spec backend installed at recovery", ErrInvalid)
	}
	cons, run, err := s.specs.Compile(*b.wireSpec)
	if err != nil {
		return err
	}
	b.cons, b.run = cons, run
	return nil
}

// syncStore flushes the WAL to stable storage (the group-commit
// ticker); an already-synced file is left alone. A failing disk
// latches storeFailed like a failed append.
func (s *Server) syncStore() {
	s.storeMu.Lock()
	if s.store != nil && !s.storeFailed && s.store.Dirty() {
		start := time.Now()
		err := s.store.Sync()
		s.m.fsyncLatency.Observe(time.Since(start).Seconds())
		if err != nil {
			s.storeFailed = true
			log.Printf("accessserver: WAL fsync failed, durability suspended until a snapshot succeeds: %v", err)
			s.slogger().LogAttrs(context.Background(), slog.LevelError, "wal fsync failed, durability suspended",
				slog.String("error", err.Error()))
		}
	}
	s.storeMu.Unlock()
}

// maybeCompact snapshots and truncates the WAL if it has grown since
// the last compaction (or an append failed and durability needs the
// snapshot to re-establish a consistent base).
func (s *Server) maybeCompact() {
	s.storeMu.Lock()
	grown := s.store != nil && (s.store.Appended() > 0 || s.storeFailed)
	s.storeMu.Unlock()
	if grown {
		if err := s.CompactStore(); err != nil {
			log.Printf("accessserver: periodic snapshot failed: %v", err)
		}
	}
}

// CompactStore writes a snapshot of the current state and truncates
// the WAL. The snapshot ticker calls it periodically; daemons may also
// call it at shutdown for a minimal next replay.
//
// Correctness needs a clean cut: no record may fall between the state
// the snapshot captures and the truncation. The snapshot is therefore
// built, and the WAL cut offset taken, under one lock ordering (s.mu →
// Users.mu → Ledger.mu → storeMu — the same relative order every WAL
// writer uses), so every record before the cut describes state the
// snapshot contains. The expensive part — marshaling and fsyncing the
// snapshot file — then runs with all of those released: records
// appended meanwhile land past the cut, and FinishCompact preserves
// them when it resets the log. The scheduler never waits on a disk
// flush.
func (s *Server) CompactStore() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	start := time.Now()
	defer func() { s.m.snapshotLatency.Observe(time.Since(start).Seconds()) }()

	s.mu.Lock()
	s.Users.mu.RLock()
	s.Ledger.mu.Lock()
	snap := s.buildSnapshotLocked()
	s.storeMu.Lock()
	st := s.store
	wasFailed := s.storeFailed
	var c *store.Compaction
	var err error
	if st != nil {
		c, err = st.BeginCompact(snap)
		if err == nil {
			// The snapshot just captured every mutation to date, so the
			// WAL gap a failed append left behind is healed the moment
			// this snapshot lands. Lift the latch HERE, inside the
			// writers' lock order: mutations from now on append past the
			// cut and survive FinishCompact — deferring the lift to
			// after the unlocked fsync would silently drop them.
			s.storeFailed = false
		}
	}
	s.storeMu.Unlock()
	s.Ledger.mu.Unlock()
	s.Users.mu.RUnlock()
	s.mu.Unlock()

	if st == nil {
		return fmt.Errorf("accessserver: no store attached")
	}
	if err != nil {
		// BeginCompact failed before the latch was lifted: nothing
		// appended, nothing to undo.
		return err
	}
	if err := st.WriteSnapshot(c); err != nil {
		// The snapshot never became durable. If the latch had been
		// lifted on its strength, the records appended meanwhile sit
		// after the old WAL gap — roll them back and re-arm the latch
		// (their state lives in memory and in the next snapshot
		// attempt). A previously-healthy WAL stays authoritative as is.
		if wasFailed {
			s.storeMu.Lock()
			s.storeFailed = true
			if rbErr := st.Rollback(c); rbErr != nil {
				log.Printf("accessserver: rolling back failed compaction: %v", rbErr)
			}
			s.storeMu.Unlock()
			log.Printf("accessserver: snapshot compaction failed, durability suspended until one succeeds: %v", err)
		}
		return err
	}
	s.storeMu.Lock()
	err = st.FinishCompact(c)
	if err != nil {
		// The on-disk pair stays consistent whether or not the swap
		// happened (the snapshot is durable and stamped with the
		// generation+cut it covers), but a failure here means appends
		// may not be reaching durable storage — latch until a
		// compaction fully succeeds.
		s.storeFailed = true
	}
	s.storeMu.Unlock()
	if err != nil {
		log.Printf("accessserver: snapshot compaction failed, durability suspended until one succeeds: %v", err)
	}
	return err
}

// buildSnapshotLocked captures the server's full persistent state.
// Callers hold s.mu, Users.mu (read) and Ledger.mu.
func (s *Server) buildSnapshotLocked() *store.Snapshot {
	snap := &store.Snapshot{Ledger: map[string][]store.LedgerRec{}}

	names := make([]string, 0, len(s.Users.byName))
	for n := range s.Users.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u := s.Users.byName[n]
		snap.Users = append(snap.Users, store.UserRec{Name: u.Name, Role: int(u.Role), Token: u.Token})
	}

	snap.Balances = map[string]float64{}
	users := make([]string, 0, len(s.Ledger.history))
	for u := range s.Ledger.history {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		entries := make([]store.LedgerRec, len(s.Ledger.history[u]))
		for i, e := range s.Ledger.history[u] {
			entries[i] = store.LedgerRec{User: u, Delta: e.Delta, Reason: e.Reason}
		}
		snap.Ledger[u] = entries
	}
	for u, bal := range s.Ledger.balances {
		snap.Balances[u] = bal
	}

	snap.NextBuild = s.nextID
	snap.NextCampaign = s.nextCampaign

	jobNames := make([]string, 0, len(s.jobs))
	for n := range s.jobs {
		jobNames = append(jobNames, n)
	}
	sort.Strings(jobNames)
	for _, n := range jobNames {
		j := s.jobs[n]
		j.mu.Lock()
		snap.Jobs = append(snap.Jobs, *jobPut(j.Name, j.Owner, j.constraints, j.approved, j.revision).Job)
		j.mu.Unlock()
	}

	nodeNames := make([]string, 0, len(s.nodeRecs))
	for n := range s.nodeRecs {
		nodeNames = append(nodeNames, n)
	}
	sort.Strings(nodeNames)
	for _, n := range nodeNames {
		rec := s.nodeRecs[n]
		snap.Nodes = append(snap.Nodes, store.NodeRec{
			Name:          rec.name,
			Owner:         rec.owner,
			Monitored:     rec.monitored,
			Draining:      rec.draining,
			Removed:       rec.removed,
			Devices:       append([]string(nil), rec.devices...),
			OwedHostingNS: int64(rec.owedHosting),
		})
	}

	ids := make([]int, 0, len(s.builds))
	for id := range s.builds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b := s.builds[id]
		b.mu.Lock()
		snap.Builds = append(snap.Builds, buildRecord(b))
		b.mu.Unlock()
	}

	cids := make([]int, 0, len(s.campaigns))
	for id := range s.campaigns {
		cids = append(cids, id)
	}
	sort.Ints(cids)
	for _, id := range cids {
		rec := s.campaigns[id]
		snap.Campaigns = append(snap.Campaigns, store.CampaignRec{
			ID:            id,
			MaxConcurrent: rec.maxConcurrent,
			Builds:        append([]int(nil), rec.builds...),
		})
	}

	// Cluster peers: name and URL only — liveness is never persisted
	// (a restored peer proves itself alive again with its first
	// announce). Peers() returns name-sorted peers, so snapshots stay
	// deterministic.
	for _, p := range s.cluster.Peers() {
		snap.Peers = append(snap.Peers, store.PeerRec{Name: p.Name, URL: p.URL})
	}
	return snap
}
