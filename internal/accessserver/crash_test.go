package accessserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// crashCfg is the crash-anywhere scenario's configuration: windows
// short enough that every kind of transition happens within a
// simulated hour, and no periodic compaction, so the WAL keeps every
// record the scenario commits.
func crashCfg() Config {
	return Config{
		Executors:      4,
		HeartbeatEvery: 5 * time.Second,
		SuspectAfter:   10 * time.Second,
		OfflineAfter:   20 * time.Second,
		MaxRetries:     1,
		RetryBackoff:   10 * time.Second,
		PendingTimeout: 2 * time.Minute,
		Retention:      30 * time.Minute,
		SnapshotEvery:  1000 * time.Hour,
		ClusterName:    "lab-a",
		ClusterToken:   testClusterToken,
	}
}

// crashBackend runs every spec for one simulated minute, then records a
// summary and succeeds; a cancel settles the run at once.
func crashBackend(clk simclock.Clock) SpecBackend {
	return funcBackend(func(spec api.ExperimentSpec) (Constraints, RunFunc, error) {
		cons := Constraints{Node: spec.Node, Device: spec.Device}
		return cons, func(ctx *BuildContext, done func(error)) {
			ctx.OnCancel(func() { done(errors.New("session torn down")) })
			clk.AfterFunc(time.Minute, func() {
				if ctx.Stale() {
					return
				}
				ctx.Build.SetSummary(api.RunSummary{Samples: 60, MeanMA: 120.5, EnergyMAH: 2})
				done(nil)
			})
		}, nil
	})
}

// replugNode is a vantage point whose attached devices can change while
// it stays registered.
type replugNode struct {
	staticNode
	devices *string
}

func (n replugNode) Exec(cmd string, args ...string) (string, error) {
	if cmd == "list_devices" {
		return *n.devices, nil
	}
	return n.staticNode.Exec(cmd, args...)
}

// runCrashScenario drives one server with a store in dir through a
// scripted virtual-clock scenario that commits every record type, and
// returns the persistent state captured at each commit boundary, keyed
// by the number of WAL records appended at that point.
func runCrashScenario(t *testing.T, dir string) map[int]*store.Snapshot {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	clk := simclock.NewVirtual()
	start := clk.Now()
	at := func(d time.Duration) { clk.RunUntil(start.Add(d)) }
	srv := New(clk, crashCfg())
	srv.SetSpecBackend(crashBackend(clk))
	srv.Users.tokens = rand.New(rand.NewSource(1)) // reproducible WAL bytes
	st, err := store.Open(dir)
	must(err)
	defer st.Close()
	_, err = srv.AttachStore(st)
	must(err)

	captures := map[int]*store.Snapshot{}
	capture := func() { // callers hold srv.mu
		srv.storeMu.Lock()
		n := st.Appended()
		srv.storeMu.Unlock()
		srv.Users.mu.RLock()
		srv.Ledger.mu.Lock()
		captures[n] = srv.buildSnapshotLocked()
		srv.Ledger.mu.Unlock()
		srv.Users.mu.RUnlock()
	}
	// User and ledger records commit through their own hooks, under the
	// user and ledger locks; the scenario captures those boundaries
	// itself. Prefix 0 is the attach snapshot.
	captureNow := func() {
		srv.mu.Lock()
		capture()
		srv.mu.Unlock()
	}
	captureNow()
	srv.mu.Lock()
	srv.onCommit = capture
	srv.mu.Unlock()

	alice, err := srv.Users.Add("alice", RoleAdmin)
	must(err)
	captureNow()
	bob, err := srv.Users.Add("bob", RoleExperimenter)
	must(err)
	captureNow()
	_, err = srv.Users.Add("carl", RoleExperimenter)
	must(err)
	captureNow()
	must(srv.Users.Remove("carl"))
	captureNow()
	srv.Ledger.Grant("bob", 50, "starter grant")
	captureNow()

	vp1 := NewFlakyNode(staticNode{name: "vp1"})
	must(srv.RegisterNode(vp1))
	vp2Devices := "dev1\ndev2\ndev3"
	must(srv.RegisterNode(replugNode{staticNode{name: "vp2"}, &vp2Devices}))
	srv.SetNodeOwner("vp2", "bob")

	// A job build waiting for a node that never registers fails when its
	// job is deleted.
	_, err = srv.CreateJob(bob, "nightly", Constraints{Node: "ghost"}, noopJob)
	must(err)
	must(srv.ApproveJob(alice, "nightly"))
	_, err = srv.Submit(bob, "nightly")
	must(err)
	must(srv.DeleteJob(alice, "nightly"))

	spec := func(node, device string) api.ExperimentSpec {
		return api.ExperimentSpec{Node: node, Device: device,
			Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": float64(60000)}}}
	}
	aged, err := srv.SubmitSpec(bob, spec("ghost", "")) // ages out at 2m
	must(err)
	_, camp, err := srv.SubmitCampaign(bob, api.CampaignSpec{Experiments: []api.ExperimentSpec{
		spec("vp1", "dev1"), spec("vp1", "dev2"), spec("vp1", "dev3"),
	}})
	must(err)
	canceled, err := srv.SubmitSpec(bob, spec("vp2", "dev1"))
	must(err)
	// At 5s the vp2 build is canceled while it runs, and the next one
	// on vp2 succeeds at 1m05s.
	at(5 * time.Second)
	must(srv.Abort(bob, canceled.ID))
	ok, err := srv.SubmitSpec(bob, spec("vp2", "dev2"))
	must(err)

	// vp1 dies at 10s: its leases break at 30s and the campaign fails
	// over into a 10s backoff.
	at(10 * time.Second)
	vp1.Kill()
	at(35 * time.Second)
	for _, b := range camp {
		if b.State() != StateQueued || b.Retries() != 1 {
			t.Fatalf("build %d at 35s: %v after %d retries, want queued in backoff", b.ID, b.State(), b.Retries())
		}
	}
	must(srv.Abort(bob, camp[2].ID)) // canceled in backoff: aborted at its requeue
	// Commits inside the backoff window: a crash here must find the
	// pending cancel in the WAL.
	must(srv.DrainNode(alice, "vp2"))
	// A phone is plugged into the draining vp2: re-arming it commits the
	// new device list and keeps the drain. Re-arming with nothing
	// changed commits nothing.
	vp2Devices += "\ndev4"
	must(srv.MonitorNode("vp2"))
	if h := srv.NodeHealth("vp2").Health; h != HealthDraining {
		t.Fatalf("vp2 after re-arm: %v, want draining", h)
	}
	appended := func() int {
		srv.storeMu.Lock()
		defer srv.storeMu.Unlock()
		return st.Appended()
	}
	n := appended()
	must(srv.MonitorNode("vp2"))
	if got := appended(); got != n {
		t.Fatalf("re-arming an unchanged node appended %d WAL records", got-n)
	}
	must(srv.UndrainNode(alice, "vp2"))
	// vp1 returns at 45s and the two survivors run again from 50s; it
	// dies again at 55s and their retry budget is spent at 1m15s.
	at(45 * time.Second)
	vp1.Revive()
	at(55 * time.Second)
	for _, b := range camp[:2] {
		if b.State() != StateRunning || b.Attempts() != 2 {
			t.Fatalf("build %d at 55s: %v attempt %d, want running attempt 2", b.ID, b.State(), b.Attempts())
		}
	}
	vp1.Kill()
	at(2*time.Minute + time.Second)
	for b, want := range map[*Build]BuildState{
		camp[0]: StateFailure, camp[1]: StateFailure, camp[2]: StateAborted,
		canceled: StateAborted, ok: StateSuccess, aged: StateFailure,
	} {
		if b.State() != want {
			t.Fatalf("build %d at 2m01s: %v (%v), want %v", b.ID, b.State(), b.Err(), want)
		}
	}
	if !errors.Is(camp[0].Err(), ErrNodeLost) {
		t.Fatalf("budget-spent build error = %v, want ErrNodeLost", camp[0].Err())
	}

	h := srv.Handler()
	if w := announceJSON(t, h, testClusterToken, api.PeerAnnounce{Name: "lab-b", URL: "http://lab-b:9090"}); w.Code != http.StatusOK {
		t.Fatalf("announce: HTTP %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/api/v1/cluster/peers/lab-b", nil)
	req.Header.Set("Authorization", "Bearer "+alice.Token)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("evict lab-b: HTTP %d", w.Code)
	}

	// vp2's hosting flushes at 15m and its removal flushes the rest;
	// retention then expires every build, and with the last member the
	// campaign.
	at(17 * time.Minute)
	must(srv.RemoveNode(alice, "vp2"))
	// vp2 comes back through the plain registry. Registration overrides
	// the tombstone for health, but only a record may change the
	// persisted row, so the reads here must leave it as folded.
	must(srv.Nodes.Register(staticNode{name: "vp2"}))
	if h := srv.NodeHealth("vp2").Health; h != HealthOnline {
		t.Fatalf("vp2 re-registered after removal: %v, want online", h)
	}
	srv.Kick()
	at(40 * time.Minute)
	if _, err := srv.Build(ok.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("finished build after retention: %v, want ErrExpired", err)
	}
	return captures
}

// snapshotOnly clears the fields that are snapshot-only by design — a
// WAL prefix cannot reproduce them, so they are excluded from the
// comparison:
//
//   - NodeRec.OwedHostingNS: hosting accrual grows with every heartbeat
//     and reaches the WAL only when it flushes (TNodeHostingFlush).
func snapshotOnly(snap *store.Snapshot) {
	for i := range snap.Nodes {
		snap.Nodes[i].OwedHostingNS = 0
	}
}

// TestCrashAnywhere: for every prefix of the WAL a scripted scenario
// wrote, the recovery fold over that prefix deep-equals the live state
// captured when the prefix was committed — a crash at any commit
// boundary rebuilds exactly the state the server had. The scenario
// commits every record type, and two runs write byte-identical WALs.
func TestCrashAnywhere(t *testing.T) {
	dir := t.TempDir()
	captures := runCrashScenario(t, dir)
	dir2 := t.TempDir()
	runCrashScenario(t, dir2)
	wal1, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	wal2, err := os.ReadFile(filepath.Join(dir2, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wal1, wal2) {
		t.Fatalf("two runs wrote different WALs (%d vs %d bytes)", len(wal1), len(wal2))
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, recs := st.Load()
	seen := map[store.Type]bool{}
	for _, rec := range recs {
		seen[rec.T] = true
	}
	for _, typ := range []store.Type{
		store.TUserAdded, store.TUserRemoved, store.TJobPut, store.TJobDeleted,
		store.TNodeMonitored, store.TNodeOwner, store.TNodeDrain, store.TNodeRemoved, store.TNodeHostingFlush,
		store.TBuildQueued, store.TBuildStarted, store.TBuildCancelWant, store.TBuildFailover,
		store.TBuildFinished, store.TBuildExpired, store.TCampaign, store.TCampaignExpired, store.TLedger,
		store.TPeerJoined, store.TPeerLeft,
	} {
		if !seen[typ] {
			t.Errorf("scenario never committed a %s record", typ)
		}
	}
	// Every prefix is a commit boundary except the three inside the
	// campaign's group commit (three builds and the campaign, one
	// write).
	if _, ok := captures[len(recs)]; !ok || len(captures) != len(recs)+1-3 {
		t.Fatalf("%d captures for %d records, want every boundary but the 3 inside the campaign batch", len(captures), len(recs))
	}

	for n := 0; n <= len(recs); n++ {
		want, ok := captures[n]
		if !ok {
			continue
		}
		fresh := New(simclock.NewVirtual(), crashCfg())
		fresh.mu.Lock()
		fresh.foldLocked(snap, recs[:n])
		fresh.Users.mu.RLock()
		fresh.Ledger.mu.Lock()
		got := fresh.buildSnapshotLocked()
		fresh.Ledger.mu.Unlock()
		fresh.Users.mu.RUnlock()
		fresh.mu.Unlock()
		snapshotOnly(want)
		snapshotOnly(got)
		if !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Fatalf("fold of the first %d records differs from the live state (last record %s):\n fold %s\n live %s",
				n, recs[n-1].T, g, w)
		}
	}
}
