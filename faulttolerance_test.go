package batterylab

// End-to-end fault tolerance: a measurement campaign across two
// health-monitored vantage points survives one of them dying mid-run.
// The victim's in-flight build is reclaimed when its lease breaks and
// requeued; fallback placement moves it (and the victim's still-queued
// work) onto the surviving node, and the campaign completes — entirely
// on the virtual clock, so the whole failure story is deterministic.

import (
	"errors"
	"testing"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/schedsim"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// faultLab is a two-node platform with failure injection on node2.
type faultLab struct {
	clk   *simclock.Virtual
	plat  *Platform
	srv   *accessserver.Server
	admin *accessserver.User
	flk   *accessserver.FlakyNode
	// devices[node name] is the node's test device serial.
	devices map[string]string
}

func newFaultLab(t *testing.T) *faultLab {
	t.Helper()
	clk := VirtualClock()
	plat, err := NewPlatform(clk, 2019)
	if err != nil {
		t.Fatal(err)
	}
	l := &faultLab{clk: clk, plat: plat, srv: plat.Access, devices: map[string]string{}}
	for i, name := range []string{"node1", "node2"} {
		_, dev, _, err := NewVantagePoint(clk, plat, VantagePointConfig{
			Name: name, Seed: 100 + uint64(i), SkipBrowsers: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		l.devices[name] = dev.Serial()
	}
	// Re-register node2 behind the failure injector, then arm health
	// monitoring on both nodes.
	inner, err := l.srv.Nodes.Get("node2")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.srv.Nodes.Remove("node2"); err != nil {
		t.Fatal(err)
	}
	l.flk = accessserver.NewFlakyNode(inner)
	if err := l.srv.Nodes.Register(l.flk); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"node1", "node2"} {
		if err := l.srv.MonitorNode(name); err != nil {
			t.Fatal(err)
		}
	}
	l.admin, err = l.srv.Users.Add("boss", accessserver.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// idleSpec is one 2-minute idle measurement with fallback enabled.
func (l *faultLab) idleSpec(node string) api.ExperimentSpec {
	return api.ExperimentSpec{
		Node: node, Device: l.devices[node],
		Monitor:     api.MonitorSpec{SampleRateHz: 100},
		Workload:    api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 120000}},
		Constraints: api.ConstraintsSpec{AllowFallback: true},
	}
}

// runToCompletion drives the virtual clock event-by-event until every
// build reaches a terminal state, returning the simulated finish time.
func (l *faultLab) runToCompletion(t *testing.T, builds []*accessserver.Build) time.Time {
	t.Helper()
	if err := schedsim.Drive(l.clk, builds, 4*time.Hour); err != nil {
		t.Fatalf("campaign: %v (%d queued)", err, l.srv.QueueLength())
	}
	return l.clk.Now()
}

// runKillScenario is one full campaign-with-node-kill run; extracted so
// the determinism test can execute it twice on fresh labs.
type killOutcome struct {
	finishedAt time.Time
	states     []accessserver.BuildState
	retries    []int
	nodes      []string
}

func runKillScenario(t *testing.T) ([]*accessserver.Build, *faultLab, killOutcome) {
	t.Helper()
	l := newFaultLab(t)
	specs := api.CampaignSpec{Experiments: []api.ExperimentSpec{
		l.idleSpec("node1"), l.idleSpec("node2"),
		l.idleSpec("node1"), l.idleSpec("node2"),
	}}
	_, builds, err := l.srv.SubmitCampaign(l.admin, specs)
	if err != nil {
		t.Fatal(err)
	}
	// The vantage point dies 30 s into the campaign and never returns.
	l.clk.AfterFunc(30*time.Second, l.flk.Kill)
	finishedAt := l.runToCompletion(t, builds)

	out := killOutcome{finishedAt: finishedAt}
	for _, b := range builds {
		out.states = append(out.states, b.State())
		out.retries = append(out.retries, b.Retries())
		out.nodes = append(out.nodes, b.NodeName())
	}
	return builds, l, out
}

func TestCampaignSurvivesNodeKill(t *testing.T) {
	builds, l, _ := runKillScenario(t)

	for i, b := range builds {
		if b.State() != accessserver.StateSuccess {
			t.Fatalf("build %d state = %v (%v), want success", i, b.State(), b.Err())
		}
	}
	// Every run ended on the survivor or on node1 to begin with; the
	// in-flight node2 build was reclaimed by its lease and retried.
	if builds[1].Retries() < 1 {
		t.Fatalf("node2's in-flight build recorded %d retries, want >= 1", builds[1].Retries())
	}
	for i, b := range builds {
		if b.NodeName() != "node1" {
			t.Fatalf("build %d finished on %q, want node1 (the survivor)", i, b.NodeName())
		}
	}
	if h := l.srv.NodeHealth("node2").Health; h != accessserver.HealthOffline {
		t.Fatalf("dead node health = %v, want offline", h)
	}
	if h := l.srv.NodeHealth("node1").Health; h != accessserver.HealthOnline {
		t.Fatalf("survivor health = %v, want online", h)
	}
	// The failover is visible to streaming clients on the build feed
	// and in the wire status.
	evs, _, _ := builds[1].Feed().EventsSince(0)
	sawFailover := false
	for _, e := range evs {
		if e.Phase == api.EventFailover {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Fatal("no failover event on the reclaimed build's feed")
	}
	if builds[1].Attempts() < 2 {
		t.Fatalf("reclaimed build attempts = %d, want >= 2", builds[1].Attempts())
	}
}

// TestCampaignFailoverDeterministic runs the identical kill scenario on
// two fresh labs: same finish instant, same states, same retry counts,
// same final placements — byte-for-byte reproducible failure handling,
// the property the virtual clock exists to provide.
func TestCampaignFailoverDeterministic(t *testing.T) {
	_, _, a := runKillScenario(t)
	_, _, b := runKillScenario(t)
	if !a.finishedAt.Equal(b.finishedAt) {
		t.Fatalf("finish times differ: %v vs %v", a.finishedAt, b.finishedAt)
	}
	for i := range a.states {
		if a.states[i] != b.states[i] || a.retries[i] != b.retries[i] || a.nodes[i] != b.nodes[i] {
			t.Fatalf("run divergence at build %d: (%v,%d,%s) vs (%v,%d,%s)",
				i, a.states[i], a.retries[i], a.nodes[i], b.states[i], b.retries[i], b.nodes[i])
		}
	}
}

// TestPinnedBuildFailsWhenNodeDies: without fallback, the same node
// loss fails the build with the typed ErrNodeLost once the retry
// budget is spent waiting on a node that never returns.
func TestPinnedBuildFailsWhenNodeDies(t *testing.T) {
	l := newFaultLab(t)
	spec := l.idleSpec("node2")
	spec.Constraints.AllowFallback = false
	b, err := l.srv.SubmitSpec(l.admin, spec)
	if err != nil {
		t.Fatal(err)
	}
	l.clk.AfterFunc(30*time.Second, l.flk.Kill)
	l.runToCompletion(t, []*accessserver.Build{b})
	if b.State() != accessserver.StateFailure {
		t.Fatalf("state = %v, want failure", b.State())
	}
	if !errors.Is(b.Err(), accessserver.ErrNodeLost) {
		t.Fatalf("err = %v, want ErrNodeLost", b.Err())
	}
}
