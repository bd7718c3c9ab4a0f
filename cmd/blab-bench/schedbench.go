package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/schedsim"
)

// schedBenchReport is the JSON baseline committed as BENCH_sched.json:
// dispatch throughput of the fault-tolerant scheduler at fleet scale —
// 100 queued builds across 10 vantage points, once with a healthy
// fleet and once with 30% of the nodes killed mid-run (their builds
// fail over to survivors) — plus two scheduling-policy scenarios: a
// skewed-tenant run (one owner submits 70% of the work under a
// fair-share run cap) and a heterogeneous fleet (fallback placement
// must land builds on the requested device model).
type schedBenchReport struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`

	Builds int `json:"builds"`
	Nodes  int `json:"nodes"`

	Scenarios []schedScenario `json:"scenarios"`
}

// schedScenario is one fleet condition's outcome.
type schedScenario struct {
	Name string `json:"name"`
	// WallNS is the real time one whole schedsim.Run took: server and
	// fleet setup, submission and the virtual-clock drive. The headline
	// DispatchPerSec is Builds/WallNS.
	WallNS         int64   `json:"wall_ns"`
	DispatchPerSec float64 `json:"dispatch_per_sec"`
	// SimulatedMS is the virtual-clock makespan of the run.
	SimulatedMS int64 `json:"simulated_ms"`
	Succeeded   int   `json:"succeeded"`
	Failed      int   `json:"failed"`
	// Failovers counts lease-break requeues across all builds.
	Failovers int `json:"failovers"`
	// MaxWaitMS is each owner's worst submit→dispatch wait in simulated
	// time (skewed-tenant only): fairness means no small tenant's wait
	// diverges toward the hog's.
	MaxWaitMS map[string]int64 `json:"max_wait_ms,omitempty"`
	// ModelMatched counts builds the scorer placed on a node hosting
	// the requested device model (hetero-fleet only).
	ModelMatched int `json:"model_matched,omitempty"`
}

// benchRun is every scenario build's simulated run time.
const benchRun = 10 * time.Second

// benchScript is the fleet the healthy, flaky and skewed scenarios
// share: nodeNN vantage points each hosting dev-nodeNN, and one build
// per owners entry, pinned round-robin across the fleet with fallback.
func benchScript(nodeCount int, owners []string) schedsim.Script {
	var s schedsim.Script
	for i := 0; i < nodeCount; i++ {
		nm := fmt.Sprintf("node%02d", i)
		s.Nodes = append(s.Nodes, schedsim.NodeSpec{Name: nm, Devices: []string{"dev-" + nm}})
	}
	for i, o := range owners {
		n := s.Nodes[i%nodeCount]
		s.Builds = append(s.Builds, schedsim.BuildSpec{
			Owner: o, Node: n.Name, Device: n.Devices[0], Fallback: true, Duration: benchRun,
		})
	}
	return s
}

// playSched plays one script and folds its outcome into a scenario
// record.
func playSched(name string, script schedsim.Script) (schedScenario, schedsim.Result, error) {
	start := time.Now()
	res, err := schedsim.Run(script)
	wall := time.Since(start).Nanoseconds()
	if err != nil {
		return schedScenario{}, res, fmt.Errorf("sched-bench %s: %w", name, err)
	}
	sc := schedScenario{
		Name:           name,
		WallNS:         wall,
		DispatchPerSec: float64(len(res.Builds)) / (float64(wall) / 1e9),
		SimulatedMS:    res.MakespanNS / 1e6,
	}
	for _, r := range res.Builds {
		if r.State == accessserver.StateSuccess.String() {
			sc.Succeeded++
		} else {
			sc.Failed++
		}
		sc.Failovers += r.Failovers
	}
	return sc, res, nil
}

// runSchedScenario queues builds across nodes and plays them to
// completion, killing the first flakyCount nodes 30 s in.
func runSchedScenario(name string, builds, nodeCount, flakyCount int) (schedScenario, error) {
	owners := make([]string, builds)
	for i := range owners {
		owners[i] = "bench"
	}
	script := benchScript(nodeCount, owners)
	for i := 0; i < flakyCount; i++ {
		script.Nodes[i].KillAt = 30 * time.Second
	}
	sc, _, err := playSched(name, script)
	return sc, err
}

// runSkewedTenant measures admission fairness: one hog owner submits
// 70% of the work, three small tenants 10% each, all under the
// fair-share run cap. Starvation would show as a small tenant's worst
// wait tracking the hog's; fairness keeps it an order of magnitude
// lower (the hog queues behind its own cap, the small tenants only
// behind free executors).
func runSkewedTenant(name string, builds, nodeCount int) (schedScenario, error) {
	// The hog floods the queue first; the small tenants submit behind
	// its backlog — the shape fair-share exists for.
	owners := []string{"hog", "u1", "u2", "u3"}
	perSmall := builds / 10
	plan := make([]string, 0, builds)
	for i := 0; i < builds-3*perSmall; i++ {
		plan = append(plan, "hog")
	}
	for _, o := range owners[1:] {
		for i := 0; i < perSmall; i++ {
			plan = append(plan, o)
		}
	}
	script := benchScript(nodeCount, plan)
	script.Config = accessserver.Config{PendingTimeout: time.Hour, OwnerRunCap: 3}
	sc, res, err := playSched(name, script)
	if err != nil {
		return sc, err
	}

	sc.MaxWaitMS = map[string]int64{}
	for _, r := range res.Builds {
		if ms := r.WaitNS / 1e6; ms > sc.MaxWaitMS[r.Owner] {
			sc.MaxWaitMS[r.Owner] = ms
		}
	}
	for _, o := range owners[1:] {
		if sc.MaxWaitMS[o]*2 > sc.MaxWaitMS["hog"] {
			return schedScenario{}, fmt.Errorf(
				"sched-bench %s: tenant %s starved — worst wait %dms vs hog's %dms",
				name, o, sc.MaxWaitMS[o], sc.MaxWaitMS["hog"])
		}
	}
	return sc, nil
}

// runHeteroFleet measures scoring placement on a mixed fleet: half the
// nodes host pixel4-model devices, half motog5, and every build pins a
// node that does not exist, asking for one model or the other with
// fallback enabled. The scorer's model-match term must land every
// build on a node hosting the requested model.
func runHeteroFleet(name string, builds, nodeCount int) (schedScenario, error) {
	models := []string{"pixel4", "motog5"}
	script := schedsim.Script{Config: accessserver.Config{PendingTimeout: time.Hour}}
	nodeModel := map[string]string{}
	for i := 0; i < nodeCount; i++ {
		model := models[i%len(models)]
		nm := fmt.Sprintf("%s-host%02d", model, i/len(models))
		dev := fmt.Sprintf("%s-%02d", model, i/len(models))
		script.Nodes = append(script.Nodes, schedsim.NodeSpec{Name: nm, Devices: []string{dev}})
		nodeModel[nm] = model
	}
	for i := 0; i < builds; i++ {
		script.Builds = append(script.Builds, schedsim.BuildSpec{
			// The pinned node is long gone; only fallback placement —
			// and so the scorer — can run this build.
			Owner: "bench", Node: "retired-node", Device: models[i%len(models)] + "-want",
			Fallback: true, Duration: benchRun,
		})
	}
	sc, res, err := playSched(name, script)
	if err != nil {
		return sc, err
	}

	for i, r := range res.Builds {
		if nodeModel[r.Node] == models[i%len(models)] {
			sc.ModelMatched++
		}
	}
	if sc.ModelMatched != builds {
		return schedScenario{}, fmt.Errorf(
			"sched-bench %s: only %d/%d builds placed on the requested device model",
			name, sc.ModelMatched, builds)
	}
	return sc, nil
}

// buildSchedReport runs every scenario at the given scale.
func buildSchedReport(builds, nodes int) (schedBenchReport, error) {
	rep := schedBenchReport{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		GoVersion: runtime.Version(),
		Builds:    builds,
		Nodes:     nodes,
	}
	healthy, err := runSchedScenario("healthy", builds, nodes, 0)
	if err != nil {
		return rep, err
	}
	flaky, err := runSchedScenario("flaky-30pct", builds, nodes, nodes*3/10)
	if err != nil {
		return rep, err
	}
	if flaky.Succeeded != builds {
		return rep, fmt.Errorf("sched-bench: only %d/%d builds survived the flaky fleet", flaky.Succeeded, builds)
	}
	skewed, err := runSkewedTenant("skewed-tenant", builds, nodes)
	if err != nil {
		return rep, err
	}
	hetero, err := runHeteroFleet("hetero-fleet", builds/5, nodes)
	if err != nil {
		return rep, err
	}
	rep.Scenarios = []schedScenario{healthy, flaky, skewed, hetero}
	return rep, nil
}

// runSchedBench measures every fleet condition and writes the JSON
// report.
func runSchedBench(w io.Writer, builds, nodes int) error {
	rep, err := buildSchedReport(builds, nodes)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// schedBenchCheck reruns the scheduler scenarios and compares the
// deterministic outcome fields — succeeded, failed, failovers, and
// model-matched placements — against the committed baseline. Timing
// fields are machine-dependent and ignored. A non-nil error means the
// scheduler's behavior drifted from the recorded baseline.
func schedBenchCheck(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want schedBenchReport
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("sched-bench-check: parsing %s: %w", path, err)
	}
	got, err := buildSchedReport(want.Builds, want.Nodes)
	if err != nil {
		return err
	}
	byName := map[string]schedScenario{}
	for _, sc := range got.Scenarios {
		byName[sc.Name] = sc
	}
	var drifts []string
	for _, w := range want.Scenarios {
		g, ok := byName[w.Name]
		if !ok {
			drifts = append(drifts, fmt.Sprintf("scenario %s: missing from rerun", w.Name))
			continue
		}
		diff := func(field string, wantV, gotV int) {
			if wantV != gotV {
				drifts = append(drifts, fmt.Sprintf("scenario %s: %s drifted %d -> %d", w.Name, field, wantV, gotV))
			}
		}
		diff("succeeded", w.Succeeded, g.Succeeded)
		diff("failed", w.Failed, g.Failed)
		diff("failovers", w.Failovers, g.Failovers)
		diff("model_matched", w.ModelMatched, g.ModelMatched)
	}
	if len(drifts) > 0 {
		for _, d := range drifts {
			fmt.Fprintln(os.Stderr, d)
		}
		return fmt.Errorf("%d deterministic field(s) drifted from %s", len(drifts), path)
	}
	return nil
}

// schedBenchTo writes the report to path ("" or "-" = stdout).
func schedBenchTo(path string, builds, nodes int) error {
	if path == "" || path == "-" {
		return runSchedBench(os.Stdout, builds, nodes)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := runSchedBench(f, builds, nodes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
