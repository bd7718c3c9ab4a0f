// Package schedsim is the repo's one virtual-clock scenario engine for
// the access server's scheduler. A Script describes a fleet (nodes,
// their devices, and scripted kill/revive/late-registration instants)
// and a workload (builds with owners, placement constraints, durations
// and submit instants); Run plays the script against a real Server on a
// virtual clock and returns every build's full outcome — assignment,
// placement score, attempts, wait and run durations, typed failure.
//
// Because the clock is virtual and every scheduler decision is
// deterministic (sorted scans, stable tie-breaks, held-clock dispatch
// batches), the same script always produces the same Result — which is
// what makes the harness usable for property tests: replay a script
// twice and diff the outcomes, assert liveness (every submitted build
// reaches a terminal state or fails typed), or probe scheduling policy
// (fairness caps, scoring preferences) with scripted fleets instead of
// ad-hoc assertions. The blab-bench -sched-bench scenarios are Scripts.
//
// Code that builds its own server still uses this package's pieces:
// Drive steps a virtual clock until a set of builds settles (with the
// same stall and budget errors Run reports), and NewNode is the
// scripted in-process vantage point. Grow scripts here rather than
// hand-rolling clock loops or fake nodes.
package schedsim

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"batterylab/internal/accessserver"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// NodeSpec scripts one vantage point's lifecycle.
type NodeSpec struct {
	// Name identifies the node; Devices are the serials it hosts
	// (conventionally "model-unit", so the placer can match models).
	Name    string
	Devices []string
	// RegisterAt delays the node's registration into the fleet (0 =
	// registered before the script starts).
	RegisterAt time.Duration
	// KillAt > 0 kills the node at that instant: pings fail, running
	// builds hang until the lease watchdog reclaims them. ReviveAt > 0
	// brings it back.
	KillAt   time.Duration
	ReviveAt time.Duration
}

// BuildSpec scripts one submitted build.
type BuildSpec struct {
	// Owner is the submitting user (created as an experimenter; the
	// harness never submits as admin so admission control applies).
	Owner string
	// Node/Device pin the preferred placement; Fallback lets the scorer
	// substitute when the pin is unavailable.
	Node     string
	Device   string
	Fallback bool
	// Duration is the simulated run time. Sync builds instead complete
	// synchronously inside dispatch — the deep-queue stress shape.
	Duration time.Duration
	Sync     bool
	// SubmitAt is the submission instant (0 = before driving starts).
	SubmitAt time.Duration
}

// Script is one complete scenario.
type Script struct {
	Nodes  []NodeSpec
	Builds []BuildSpec
	// Config overrides the harness defaults (Executors = node count,
	// 5s heartbeats, 5s retry backoff, 3 retries, 10m pending timeout).
	// Zero fields keep the defaults.
	Config accessserver.Config
	// Placer overrides the default scoring placer.
	Placer accessserver.Placer
	// MaxSimulated bounds the virtual-clock run as a safety net against
	// a livelocked script (default 24h).
	MaxSimulated time.Duration
}

// BuildResult is one build's deterministic outcome. Instants are
// durations from the script's start on the virtual clock.
type BuildResult struct {
	Index int    // position in Script.Builds
	Owner string `json:"owner"`
	State string `json:"state"`
	// Shed marks a submission rejected by admission control: no build
	// ever existed, ShedReason says why, every other field is zero.
	Shed       bool   `json:"shed,omitempty"`
	ShedReason string `json:"shed_reason,omitempty"`

	Node      string  `json:"node"`
	Score     float64 `json:"score"`
	Attempts  int     `json:"attempts"`
	Failovers int     `json:"failovers"`
	// WaitNS is submit→dispatch; RunNS is dispatch→finish. SubmitAt +
	// Wait + Run is the finish instant, so identical results imply
	// identical finish instants.
	WaitNS int64 `json:"wait_ns"`
	RunNS  int64 `json:"run_ns"`

	Err      string `json:"err,omitempty"`
	NodeLost bool   `json:"node_lost,omitempty"`
}

// Result is the script's outcome.
type Result struct {
	Builds []BuildResult
	// MakespanNS is the virtual time from start to the last terminal
	// transition the drive loop observed.
	MakespanNS int64
	// Shed counts submissions rejected by admission control.
	Shed int
}

// simNode is the scripted in-process vantage point.
type simNode struct {
	name    string
	devices string // newline-joined for list_devices
}

// NewNode returns an in-process vantage point hosting devices: pings
// succeed, list_devices reports the serials, and status reports an
// idle CPU. Wrap it in accessserver.NewFlakyNode to script failures.
func NewNode(name string, devices ...string) accessserver.Node {
	return simNode{name: name, devices: strings.Join(devices, "\n")}
}

func (n simNode) Name() string { return n.name }
func (n simNode) Exec(cmd string, args ...string) (string, error) {
	switch cmd {
	case "ping":
		return "pong", nil
	case "list_devices":
		return n.devices, nil
	case "status":
		return "status: cpu=5.0%", nil
	}
	return "", nil
}
func (n simNode) Ping() error { return nil }

// backend compiles scripted specs: the workload params carry the
// build's duration and sync flag.
type backend struct{ clock simclock.Clock }

func (b backend) Compile(spec api.ExperimentSpec) (accessserver.Constraints, accessserver.RunFunc, error) {
	cons := accessserver.Constraints{
		Node:     spec.Node,
		Device:   spec.Device,
		Fallback: spec.Constraints.AllowFallback,
	}
	durMS := spec.Workload.Params.Int("duration_ms", 10_000)
	sync := spec.Workload.Params.Bool("sync", false)
	return cons, func(ctx *accessserver.BuildContext, done func(error)) {
		if sync {
			done(nil)
			return
		}
		b.clock.AfterFunc(time.Duration(durMS)*time.Millisecond, func() {
			// A run on a dead vantage point never reports back — the
			// hang the lease watchdog exists to break. Live nodes
			// complete normally.
			if _, err := ctx.Node.Exec("ping"); err != nil {
				return
			}
			done(nil)
		})
	}, nil
}

func (backend) WorkloadNames() []string { return []string{"sim"} }

// Run plays the script to completion and reports every build's
// outcome. It errors when the scheduler stalls (a non-terminal build
// with no pending clock work) or the simulated-time safety net trips —
// both liveness violations, never expected from a correct scheduler.
func Run(script Script) (Result, error) {
	clk := simclock.NewVirtual()
	cfg := script.Config
	if cfg.Executors == 0 {
		cfg.Executors = len(script.Nodes)
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 5 * time.Second
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 5 * time.Second
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.PendingTimeout == 0 {
		cfg.PendingTimeout = 10 * time.Minute
	}
	maxSim := script.MaxSimulated
	if maxSim == 0 {
		maxSim = 24 * time.Hour
	}
	srv := accessserver.New(clk, cfg)
	srv.SetSpecBackend(backend{clock: clk})
	if script.Placer != nil {
		srv.SetPlacer(script.Placer)
	}

	users := map[string]*accessserver.User{}
	for _, bs := range script.Builds {
		if _, ok := users[bs.Owner]; ok {
			continue
		}
		u, err := srv.Users.Add(bs.Owner, accessserver.RoleExperimenter)
		if err != nil {
			return Result{}, fmt.Errorf("schedsim: adding owner %s: %w", bs.Owner, err)
		}
		users[bs.Owner] = u
	}

	for _, ns := range script.Nodes {
		ns := ns
		flk := accessserver.NewFlakyNode(NewNode(ns.Name, ns.Devices...))
		if ns.RegisterAt > 0 {
			clk.AfterFunc(ns.RegisterAt, func() {
				if err := srv.RegisterNode(flk); err != nil {
					panic(fmt.Sprintf("schedsim: late-registering %s: %v", ns.Name, err))
				}
			})
		} else if err := srv.RegisterNode(flk); err != nil {
			return Result{}, fmt.Errorf("schedsim: registering %s: %w", ns.Name, err)
		}
		if ns.KillAt > 0 {
			clk.AfterFunc(ns.KillAt, flk.Kill)
		}
		if ns.ReviveAt > 0 {
			clk.AfterFunc(ns.ReviveAt, flk.Revive)
		}
	}

	t0 := clk.Now()
	results := make([]BuildResult, len(script.Builds))
	builds := make([]*accessserver.Build, len(script.Builds))
	shed := 0
	submit := func(i int) {
		bs := script.Builds[i]
		b, err := srv.SubmitSpec(users[bs.Owner], api.ExperimentSpec{
			Node: bs.Node, Device: bs.Device,
			Workload: api.WorkloadSpec{Name: "sim", Params: api.Params{
				// Params.Int reads int/float64, not int64.
				"duration_ms": int(bs.Duration.Milliseconds()),
				"sync":        bs.Sync,
			}},
			Constraints: api.ConstraintsSpec{AllowFallback: bs.Fallback},
		})
		if err != nil {
			if !errors.Is(err, accessserver.ErrOverloaded) {
				panic(fmt.Sprintf("schedsim: submitting build %d: %v", i, err))
			}
			results[i] = BuildResult{
				Index: i, Owner: bs.Owner, State: "shed",
				Shed: true, ShedReason: accessserver.ShedReasonOf(err),
			}
			shed++
			return
		}
		builds[i] = b
	}
	for i, bs := range script.Builds {
		if bs.SubmitAt > 0 {
			i := i
			clk.AfterFunc(bs.SubmitAt, func() { submit(i) })
		} else {
			submit(i)
		}
	}

	// A build is outstanding while unsubmitted (its SubmitAt has not
	// fired — builds[i] still nil and results[i] not shed) or
	// non-terminal.
	settled := func() bool {
		for i, b := range builds {
			if b == nil {
				if !results[i].Shed {
					return false
				}
			} else if !b.State().Terminal() {
				return false
			}
		}
		return true
	}
	if err := drive(clk, maxSim, settled); err != nil {
		return Result{}, fmt.Errorf("%w (%d builds queued)", err, srv.QueueLength())
	}
	makespan := clk.Now().Sub(t0)

	for i, b := range builds {
		if b == nil {
			continue // shed; result already recorded
		}
		r := BuildResult{
			Index:     i,
			Owner:     script.Builds[i].Owner,
			State:     b.State().String(),
			Node:      b.NodeName(),
			Score:     b.PlacementScore(),
			Attempts:  b.Attempts(),
			Failovers: b.Retries(),
			WaitNS:    b.QueueTime().Nanoseconds(),
			RunNS:     b.Duration().Nanoseconds(),
		}
		if err := b.Err(); err != nil {
			r.Err = err.Error()
			r.NodeLost = errors.Is(err, accessserver.ErrNodeLost)
		}
		results[i] = r
	}
	return Result{Builds: results, MakespanNS: makespan.Nanoseconds(), Shed: shed}, nil
}

// Drive steps clk from deadline to deadline until every build is
// terminal. It errors when the run stalls (a build is still open but no
// clock work is pending) or when the next deadline lies more than
// budget past the instant Drive was called.
func Drive(clk *simclock.Virtual, builds []*accessserver.Build, budget time.Duration) error {
	return drive(clk, budget, func() bool {
		for _, b := range builds {
			if !b.State().Terminal() {
				return false
			}
		}
		return true
	})
}

var (
	errStalled    = errors.New("schedsim: stalled with open builds and no pending clock work")
	errOverBudget = errors.New("schedsim: exceeded the simulated-time budget")
)

// drive is Drive over an arbitrary settled predicate: Run's scripted
// builds hold a run open before they are even submitted.
func drive(clk *simclock.Virtual, budget time.Duration, settled func() bool) error {
	t0 := clk.Now()
	for !settled() {
		next, ok := clk.NextDeadline()
		if !ok {
			return fmt.Errorf("%w at %s", errStalled, clk.Now().Sub(t0))
		}
		if next.Sub(t0) > budget {
			return fmt.Errorf("%w of %s", errOverBudget, budget)
		}
		clk.RunUntil(next)
	}
	return nil
}
