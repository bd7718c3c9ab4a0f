package accessserver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batterylab/internal/accessserver/feedhub"
	"batterylab/internal/api"
)

// waitGauge polls fn until it reports want or the deadline passes.
func waitGauge(t *testing.T, want int64, fn func() int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fn() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("gauge = %d, want %d", fn(), want)
}

// TestFeedPlaneLockFree is the control/data plane split's acceptance
// test: with 100 streaming subscribers attached and a thousand status
// polls in flight, the scheduler mutex is never acquired. Streaming
// resolves through the feed hub, status reads come off the snapshot
// plane, and the instrumented scheduler lock counts every acquisition —
// the delta across the read flood must be exactly zero.
func TestFeedPlaneLockFree(t *testing.T) {
	v := newV1Rig(t)
	target := v.queueBuild(t, v.exp) // live feed, stays queued

	// Attach 100 streaming subscribers (half events, half samples).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		path := fmt.Sprintf("/api/v1/builds/%d/events", target)
		if i%2 == 1 {
			path = fmt.Sprintf("/api/v1/builds/%d/samples", target)
		}
		req, err := http.NewRequestWithContext(ctx, "GET", v.ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+v.admin.Token)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // canceled at teardown
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
		}()
	}
	defer wg.Wait()
	defer cancel() // unblock the streams before wg.Wait and ts.Close
	waitGauge(t, 100, v.srv.m.feedSubscribers.Value)

	// The flood: a thousand reads across the hot routes, each followed
	// by a NodeHealth read of every node. None may touch s.mu.
	// (Deliberately not GET /api/v1/metrics — the scheduler collector
	// reports queue depth from under the lock by design.)
	before := v.srv.SchedLockAcquisitions()
	paths := []string{
		fmt.Sprintf("/api/v1/builds/%d", target),
		fmt.Sprintf("/api/v1/builds/%d", v.doneBuild),
		"/api/v1/nodes",
		"/api/v1/nodes/node1",
		fmt.Sprintf("/api/v1/campaigns/%d", v.campaign),
	}
	nodes := v.srv.Nodes.List()
	const workers = 8
	var polls atomic.Int64
	var pwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		pwg.Add(1)
		go func(w int) {
			defer pwg.Done()
			for i := 0; i < 1000/workers; i++ {
				resp := v.request(t, "GET", paths[(w+i)%len(paths)], v.admin.Token, "")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("poll %s: status %d", paths[(w+i)%len(paths)], resp.StatusCode)
					return
				}
				polls.Add(1)
				for _, n := range nodes {
					v.srv.NodeHealth(n)
				}
			}
		}(w)
	}
	pwg.Wait()
	if n := polls.Load(); n < 1000 {
		t.Fatalf("completed %d polls, want >= 1000", n)
	}
	if after := v.srv.SchedLockAcquisitions(); after != before {
		t.Fatalf("scheduler lock acquired %d times during read flood, want 0", after-before)
	}
}

// stateRank orders wire states along a build's lifecycle; monotonic
// reads mean no client may ever observe the rank decrease.
func stateRank(t *testing.T, st string) int {
	if st == api.StateExpired {
		return 3
	}
	bs, ok := parseState(st)
	switch {
	case !ok:
		t.Errorf("unknown wire state %q", st)
		return -1
	case bs.Terminal():
		return 2
	}
	return int(bs) // queued 0, running 1
}

// TestMonotonicReadsDuringChurn drives a thousand concurrent status
// polls while the scheduler churns (submits finishing builds, aborts
// queued ones) and asserts every poller sees each build's state move
// forward only. Snapshots are republished inside the scheduler's
// critical sections, so a transition can never be observed out of
// order — the regression this guards against is a publisher moved
// outside the lock.
func TestMonotonicReadsDuringChurn(t *testing.T) {
	v := newV1Rig(t)

	const nBuilds = 10
	ids := make([]int, nBuilds)
	for i := range ids {
		ids[i] = v.queueBuild(t, v.exp)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup

	// 4 pollers per build x 25 polls each = 1000 polls.
	for _, id := range ids {
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				<-start
				last := -1
				for i := 0; i < 25; i++ {
					resp := v.request(t, "GET", fmt.Sprintf("/api/v1/builds/%d", id), v.admin.Token, "")
					var st api.BuildStatus
					err := json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if err != nil {
						t.Errorf("build %d: decode: %v", id, err)
						return
					}
					r := stateRank(t, string(st.State))
					if r < last {
						t.Errorf("build %d: state went backwards (rank %d after %d)", id, r, last)
						return
					}
					last = r
				}
			}(id)
		}
	}

	// Churn: abort the queued builds from two goroutines while two more
	// submit node1 builds that run to completion, exercising the full
	// queued->running->terminal publish chain under contention.
	var churn sync.WaitGroup
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			<-start
			for i := g; i < nBuilds; i += 2 {
				if err := v.srv.Abort(v.admin, ids[i]); err != nil {
					t.Errorf("abort %d: %v", ids[i], err)
				}
			}
		}(g)
		churn.Add(1)
		go func() {
			defer churn.Done()
			<-start
			for i := 0; i < 5; i++ {
				if _, err := v.srv.SubmitSpec(v.exp, v.spec("node1")); err != nil {
					t.Errorf("submit: %v", err)
				}
			}
		}()
	}
	close(start)
	churn.Wait()
	wg.Wait()

	// Settled: every ghost build reads aborted from the snapshot plane.
	for _, id := range ids {
		st, ok := v.srv.reads.buildStatus(id)
		if !ok || st.State != StateAborted.String() {
			t.Fatalf("build %d: snapshot = %+v, %v; want aborted", id, st, ok)
		}
	}
}

// TestFeedCloseChurnRace is the lock-ordering regression test for the
// old "close the feed after releasing s.mu" contract: subscribers
// attach and drain feeds through the hub while builds are concurrently
// aborted, finished and — after the churn — expired by retention. Feed
// close now happens inside the scheduler's critical sections (the hub
// is a leaf lock), so under -race this must be quiet and no subscriber
// may hang on a feed whose close it missed.
func TestFeedCloseChurnRace(t *testing.T) {
	v := newV1Rig(t)
	hub := v.srv.FeedHub()

	const nBuilds = 16
	ids := make([]int, nBuilds)
	for i := range ids {
		ids[i] = v.queueBuild(t, v.exp)
	}

	start := make(chan struct{})
	var subs sync.WaitGroup
	for _, id := range ids {
		for s := 0; s < 2; s++ {
			subs.Add(1)
			go func(id int) {
				defer subs.Done()
				<-start
				cursor := 0
				for {
					f, _, st := hub.Resolve(id)
					if st != feedhub.StatusLive {
						return // evicted while we looped: fine
					}
					evs, closed, changed := f.EventsSince(cursor)
					cursor += len(evs)
					if closed {
						if more, _, _ := f.EventsSince(cursor); len(more) == 0 {
							return
						}
						continue
					}
					select {
					case <-changed:
					case <-time.After(50 * time.Millisecond):
					}
				}
			}(id)
		}
	}

	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			<-start
			for i := g; i < nBuilds; i += 4 {
				if err := v.srv.Abort(v.admin, ids[i]); err != nil {
					t.Errorf("abort %d: %v", ids[i], err)
				}
			}
			// Finish path: a build that runs to completion closes its
			// feed under s.mu on the settlement path.
			if _, err := v.srv.SubmitSpec(v.exp, v.spec("node1")); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(g)
	}
	close(start)
	churn.Wait()
	subs.Wait()

	for _, id := range ids {
		if !hub.Feed(id).Closed() {
			t.Fatalf("build %d: feed still open after churn", id)
		}
	}

	// Expiry: retention eviction (hub.Remove) races fresh subscribers
	// resolving the same ids.
	var late sync.WaitGroup
	for _, id := range ids {
		late.Add(1)
		go func(id int) {
			defer late.Done()
			for {
				f, _, st := hub.Resolve(id)
				if st == feedhub.StatusExpired {
					return
				}
				if st == feedhub.StatusUnknown {
					t.Errorf("build %d: resolved unknown, want live or expired", id)
					return
				}
				f.EventsSince(0)
				time.Sleep(time.Millisecond)
			}
		}(id)
	}
	v.clk.Advance(v.srv.cfg.Retention + time.Hour)
	late.Wait()

	if _, _, st := hub.Resolve(ids[0]); st != feedhub.StatusExpired {
		t.Fatalf("post-retention resolve = %v, want expired", st)
	}
}

// TestInvalidCursorTyped: garbage ?from= cursors on the streaming
// routes return the typed invalid_cursor envelope at 400, so a
// reconnecting client can distinguish "my cursor is junk, restart at
// zero" from a transport failure.
func TestInvalidCursorTyped(t *testing.T) {
	v := newV1Rig(t)
	for _, tc := range []string{
		fmt.Sprintf("/api/v1/builds/%d/events?from=abc", v.doneBuild),
		fmt.Sprintf("/api/v1/builds/%d/events?from=-1", v.doneBuild),
		fmt.Sprintf("/api/v1/builds/%d/samples?from=abc", v.doneBuild),
		fmt.Sprintf("/api/v1/builds/%d/samples?from=-7", v.doneBuild),
	} {
		resp := v.request(t, "GET", tc, v.admin.Token, "")
		var env api.Envelope
		err := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode: %v", tc, err)
		}
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", tc, resp.StatusCode)
		}
		if env.Error == nil || env.Error.Code != api.CodeInvalidCursor {
			t.Errorf("%s: envelope = %+v, want code %q", tc, env.Error, api.CodeInvalidCursor)
		}
	}

	// A valid cursor on a finished build replays and ends cleanly.
	resp := v.request(t, "GET", fmt.Sprintf("/api/v1/builds/%d/events?from=0", v.doneBuild), v.admin.Token, "")
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("valid cursor: status %d", resp.StatusCode)
	}
}
