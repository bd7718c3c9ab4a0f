package accessserver

import (
	"errors"
	"fmt"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
)

// The transition path. Every persisted state change — build, campaign,
// node, job and peer — is a typed store.Record, and applyLocked is the
// one function that applies a record to the live structures. Both
// sides of durability use it:
//
//   - live: a transition builds its record and calls commitLocked,
//     which applies it, appends it to the WAL, republishes the touched
//     build's served status, and leaves the node census marked dirty
//     for the scheduler lock's release to republish once;
//   - recovery: AttachStore folds the snapshot and the WAL through
//     applyLocked with those observers off (see persist.go).
//
// Because the two paths share the function, the state a restart
// rebuilds is by construction the state the live server had at the
// same WAL position. What a record cannot carry stays with the live
// caller: timers and leases, lock keys, feed events, log lines and
// pipeline bodies. Users and ledger movements keep their own path (the
// mutation plus its WAL hook); replay applies their records here,
// without the hooks.

// stateNew is the state of a build that applyLocked is creating: the
// transition out of it counts the submission.
const stateNew BuildState = -1

// active reports whether a build in state st holds an owner's in-flight
// slot (queued or running).
func (st BuildState) active() bool { return st == StateQueued || st == StateRunning }

// commitLocked applies one transition record and makes it durable and
// visible. Inside a group commit (beginBatchLocked) the WAL append is
// deferred to flushBatchLocked. Callers hold s.mu but no b.mu.
func (s *Server) commitLocked(rec store.Record) *Build {
	b := s.applyLocked(rec)
	if b != nil {
		s.publishBuildLocked(b)
	}
	if s.batching {
		s.batch = append(s.batch, rec)
		return b
	}
	s.logStore(rec)
	if s.onCommit != nil {
		s.onCommit()
	}
	return b
}

// beginBatchLocked starts a group commit: the records committed until
// flushBatchLocked reach the WAL as one AppendBatch — one logical
// mutation (a campaign and its builds), one write. Callers hold s.mu.
func (s *Server) beginBatchLocked() { s.batching = true }

// flushBatchLocked ends a group commit, appending its records.
func (s *Server) flushBatchLocked() {
	recs := s.batch
	s.batching, s.batch = false, nil
	s.logStoreBatch(recs)
	if s.onCommit != nil {
		s.onCommit()
	}
}

// applyLocked applies one record to the server's live structures and
// returns the build it touched (nil for every other record). It is the
// only writer of persisted state. Callers hold s.mu but no b.mu.
func (s *Server) applyLocked(rec store.Record) *Build {
	switch rec.T {
	case store.TUserAdded:
		if u := rec.User; u != nil {
			s.Users.restore(u.Name, Role(u.Role), u.Token)
		}
	case store.TUserRemoved:
		// Replay only (live removals log through the Users hook, which
		// is installed after the fold); a name already gone is no error.
		_ = s.Users.Remove(rec.Name)
	case store.TLedger:
		if e := rec.Entry; e != nil {
			s.Ledger.addQuiet(e.User, LedgerEntry{Delta: e.Delta, Reason: e.Reason})
		}
	case store.TJobPut:
		if jr := rec.Job; jr != nil {
			j := s.jobs[jr.Name]
			if j == nil {
				j = &Job{Name: jr.Name, Owner: jr.Owner}
				s.jobs[jr.Name] = j
			}
			j.mu.Lock()
			j.constraints = Constraints{Node: jr.Node, Device: jr.Device,
				RequireLowCPU: jr.RequireLowCPU, Fallback: jr.Fallback}
			j.approved = jr.Approved
			j.revision = jr.Revision
			j.mu.Unlock()
			s.mu.censusDirty = true // queued builds may resolve to another node
		}
	case store.TJobDeleted:
		delete(s.jobs, rec.Name)
		s.mu.censusDirty = true
	case store.TNodeMonitored:
		// A node's full persisted lifecycle row: live monitor records
		// and snapshot rows alike. Only snapshot rows carry accrual, and
		// an owner set before (re-)monitoring sticks.
		if n := rec.Node; n != nil {
			nr := s.recLocked(n.Name)
			if n.Owner != "" {
				nr.owner = n.Owner
			}
			nr.monitored, nr.draining, nr.removed = n.Monitored, n.Draining, n.Removed
			nr.devices = append([]string(nil), n.Devices...)
			if n.OwedHostingNS != 0 {
				nr.owedHosting = time.Duration(n.OwedHostingNS)
			}
			s.mu.censusDirty = true
		}
	case store.TNodeOwner:
		// Only a genuine transfer resets accrual (its flush landed as the
		// preceding TNodeHostingFlush record); a same-owner re-set — a
		// daemon's -owner flag on every boot — keeps the remainder.
		nr := s.recLocked(rec.Name)
		if nr.owner != rec.Owner {
			nr.owedHosting = 0
		}
		nr.owner = rec.Owner
	case store.TNodeDrain:
		s.recLocked(rec.Name).draining = rec.Draining
		s.mu.censusDirty = true
	case store.TNodeRemoved:
		nr := s.recLocked(rec.Name)
		nr.removed, nr.monitored, nr.draining, nr.owedHosting = true, false, false, 0
		s.mu.censusDirty = true
	case store.TNodeHostingFlush:
		// Zero the node's accrual AND credit the owner: one record, so a
		// crash can neither double-pay nor drop one half.
		s.recLocked(rec.Name).owedHosting = 0
		s.Ledger.addQuiet(rec.Owner, hostingEntry(rec.Name, time.Duration(rec.AtNS)))
	case store.TBuildQueued:
		return s.applyBuildRowLocked(rec.Build)
	case store.TBuildExpired:
		delete(s.builds, rec.BuildID)
		s.hub.Remove(rec.BuildID)
		s.reads.removeBuild(rec.BuildID)
	case store.TCampaign:
		if c := rec.Campaign; c != nil {
			s.campaigns[c.ID] = &campaignRec{builds: append([]int(nil), c.Builds...), maxConcurrent: c.MaxConcurrent}
			if c.ID >= s.nextCampaign {
				s.nextCampaign = c.ID + 1
			}
			s.reads.publishCampaign(c.ID, c.Builds)
		}
	case store.TCampaignExpired:
		delete(s.campaigns, rec.CampaignID)
		s.reads.removeCampaign(rec.CampaignID)
	case store.TPeerJoined:
		if p := rec.Peer; p != nil {
			s.cluster.Restore(p.Name, p.URL)
		}
	case store.TPeerLeft:
		s.cluster.Remove(rec.Name)
	case store.TBuildStarted, store.TBuildCancelWant, store.TBuildFailover, store.TBuildFinished:
		b := s.builds[rec.BuildID]
		if b == nil {
			return nil
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		switch rec.T {
		case store.TBuildStarted:
			b.nodeName, b.routedVia, b.placementScore = rec.NodeName, rec.RoutedVia, rec.Score
			b.attempt = rec.Attempt
			b.startedAt = time.Unix(0, rec.AtNS)
			b.pendingReason = ""
			s.setStateLocked(b, StateRunning)
		case store.TBuildCancelWant:
			b.cancelWant = true
		case store.TBuildFailover:
			b.retries = rec.Retries
			s.setStateLocked(b, StateQueued)
		case store.TBuildFinished:
			to, ok := parseState(rec.State)
			if !ok {
				return nil
			}
			b.finishedAt = time.Unix(0, rec.AtNS)
			b.cancelWant = rec.Canceled
			if rec.Attempt > 0 {
				b.attempt = rec.Attempt
			}
			if rec.Retries > 0 {
				b.retries = rec.Retries
			}
			b.summary = copySummary(rec.Summary)
			b.err = keepErr(b.err, rec.Err, rec.NodeLost)
			s.setStateLocked(b, to)
			if rec.NodeName != "" {
				b.nodeName = rec.NodeName
			}
		}
		return b
	}
	return nil
}

// applyBuildRowLocked installs a build from its persisted row: a live
// TBuildQueued record, or a snapshot row in any state.
func (s *Server) applyBuildRowLocked(br *store.BuildRec) *Build {
	if br == nil {
		return nil
	}
	if br.ID >= s.nextID {
		s.nextID = br.ID + 1
	}
	state, ok := parseState(br.State)
	if !ok {
		return nil
	}
	b := &Build{
		ID:             br.ID,
		Job:            br.Job,
		Owner:          br.Owner,
		campaign:       br.Campaign,
		wireSpec:       br.Spec,
		feedEpoch:      br.FeedEpoch,
		workspace:      NewWorkspace(),
		feed:           s.hub.Create(br.ID, br.FeedEpoch),
		state:          stateNew,
		queuedAt:       unixTime(br.QueuedAtNS),
		startedAt:      unixTime(br.StartedAtNS),
		finishedAt:     unixTime(br.FinishedAtNS),
		nodeName:       br.Node,
		routedVia:      br.RoutedVia,
		placementScore: br.PlacementScore,
		attempt:        br.Attempts,
		retries:        br.Retries,
		cancelWant:     br.Canceled,
		summary:        copySummary(br.Summary),
		err:            keepErr(nil, br.Err, br.NodeLost),
	}
	s.builds[b.ID] = b
	b.mu.Lock()
	s.setStateLocked(b, state)
	b.mu.Unlock()
	return b
}

// setStateLocked moves b to state to. It is the only writer of b.state
// and of what derives from it: the scheduler's state counters, the
// per-owner in-flight and running census, and the executor, campaign
// and node running counts. Callers hold s.mu and b.mu.
func (s *Server) setStateLocked(b *Build, to BuildState) {
	from := b.state
	switch from {
	case stateNew:
		s.m.submitted++
	case StateQueued:
		s.m.queued--
	case StateRunning:
		s.m.running--
		s.runningDeltaLocked(b, -1)
	}
	switch to {
	case StateQueued:
		s.m.queued++
	case StateRunning:
		s.m.running++
		s.runningDeltaLocked(b, 1)
	case StateSuccess:
		s.m.succeeded++
	case StateFailure:
		s.m.failed++
	case StateAborted:
		s.m.aborted++
	}
	if was, is := from.active(), to.active(); is && !was {
		s.ownerActive[b.Owner]++
	} else if was && !is {
		if s.ownerActive[b.Owner]--; s.ownerActive[b.Owner] <= 0 {
			delete(s.ownerActive, b.Owner)
		}
	}
	b.state = to
	// A new build's queued count reaches the census with the dispatch
	// pass every enqueue is followed by: republishing here too would add
	// a queue scan to every submit.
	if from != stateNew {
		s.mu.censusDirty = true
	}
}

// runningDeltaLocked moves the running counts b contributes to: its
// owner's fair-share census, its campaign's concurrency count and, for
// a local placement, its node's leased-build count.
func (s *Server) runningDeltaLocked(b *Build, d int) {
	if s.ownerRunning[b.Owner] += d; s.ownerRunning[b.Owner] <= 0 {
		delete(s.ownerRunning, b.Owner)
	}
	if c := s.campaigns[b.campaign]; c != nil {
		c.running += d
	}
	if b.routedVia != "" {
		return // a peer's node never enters the local census
	}
	if d > 0 {
		s.recLocked(b.nodeName).running++
	} else if nr := s.nodeRecs[b.nodeName]; nr != nil && nr.running > 0 {
		nr.running--
	}
}

// settleLocked is the one terminal transition: it records err and the
// console line, closes the feed (before the terminal status publishes,
// so a client that sees the status finds the stream complete), commits
// the TBuildFinished record, stops the build's timers and schedules its
// retention. Callers hold s.mu but no b.mu.
func (s *Server) settleLocked(b *Build, to BuildState, err error, line string) {
	b.mu.Lock()
	b.err = err
	fmt.Fprintln(&b.log, line)
	br := buildRecord(b)
	b.mu.Unlock()
	s.hub.Close(b.ID)
	s.commitLocked(store.Record{
		T:        store.TBuildFinished,
		BuildID:  b.ID,
		State:    to.String(),
		Err:      br.Err,
		Canceled: br.Canceled || to == StateAborted,
		NodeLost: br.NodeLost,
		NodeName: br.Node,
		Attempt:  br.Attempts,
		Retries:  br.Retries,
		Summary:  br.Summary,
		AtNS:     s.clock.Now().UnixNano(),
	})
	b.mu.Lock()
	b.stopTimersLocked()
	b.mu.Unlock()
	s.scheduleRetention(b)
}

// buildRecord renders b's persisted state: its snapshot row, and the
// payload of its terminal record. Callers hold b.mu, or own b
// exclusively.
func buildRecord(b *Build) store.BuildRec {
	br := store.BuildRec{
		ID:             b.ID,
		Job:            b.Job,
		Owner:          b.Owner,
		Campaign:       b.campaign,
		Spec:           b.wireSpec,
		State:          b.state.String(),
		Canceled:       b.cancelWant,
		Node:           b.nodeName,
		Attempts:       b.attempt,
		Retries:        b.retries,
		RoutedVia:      b.routedVia,
		PlacementScore: b.placementScore,
		QueuedAtNS:     unixNano(b.queuedAt),
		StartedAtNS:    unixNano(b.startedAt),
		FinishedAtNS:   unixNano(b.finishedAt),
		Summary:        copySummary(b.summary),
		FeedEpoch:      b.feedEpoch,
	}
	if b.err != nil {
		br.Err = b.err.Error()
		br.NodeLost = errors.Is(b.err, ErrNodeLost)
	}
	return br
}

// keepErr resolves a build's failure cause from a record: the live
// typed error when the committing caller installed one with the same
// message, else the persisted message and markers.
func keepErr(live error, msg string, nodeLost bool) error {
	switch {
	case msg == "":
		return nil
	case live != nil && live.Error() == msg:
		return live
	case nodeLost:
		return &recoveredErr{msg: msg, sentinels: []error{ErrNodeLost}}
	default:
		return &recoveredErr{msg: msg}
	}
}

func copySummary(sum *api.RunSummary) *api.RunSummary {
	if sum == nil {
		return nil
	}
	cp := *sum
	return &cp
}

func unixTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// parseState inverts BuildState.String.
func parseState(s string) (BuildState, bool) {
	for st := StateQueued; st <= StateAborted; st++ {
		if st.String() == s {
			return st, true
		}
	}
	return 0, false
}
