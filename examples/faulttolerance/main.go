// Fault tolerance tour: a measurement campaign across two vantage
// points survives one of them dying mid-run. Both nodes are
// health-monitored (heartbeat probes on the platform clock); 30
// seconds into the campaign the failure injector kills node2. Its
// in-flight build hangs, the lease watchdog reclaims it, and fallback
// placement requeues it — plus node2's still-queued work — onto the
// surviving node. The whole story runs on the virtual clock, so the
// sequence of health transitions, failovers and completions is
// deterministic down to the timestamp.
package main

import (
	"fmt"
	"log"
	"time"

	"batterylab"
	"batterylab/internal/accessserver"
	"batterylab/internal/api"
)

func main() {
	clock := batterylab.VirtualClock()
	plat, err := batterylab.NewPlatform(clock, 2019)
	if err != nil {
		log.Fatal(err)
	}
	srv := plat.Access

	// Two vantage points; node2 goes behind the failure injector.
	devices := map[string]string{}
	for i, name := range []string{"node1", "node2"} {
		_, dev, _, err := batterylab.NewVantagePoint(clock, plat, batterylab.VantagePointConfig{
			Name: name, Seed: 100 + uint64(i), SkipBrowsers: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		devices[name] = dev.Serial()
	}
	inner, err := srv.Nodes.Get("node2")
	if err != nil {
		log.Fatal(err)
	}
	srv.Nodes.Remove("node2")
	flaky := accessserver.NewFlakyNode(inner)
	if err := srv.Nodes.Register(flaky); err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"node1", "node2"} {
		if err := srv.MonitorNode(name); err != nil {
			log.Fatal(err)
		}
	}
	admin, err := srv.Users.Add("boss", accessserver.RoleAdmin)
	if err != nil {
		log.Fatal(err)
	}

	// Four 2-minute idle measurements, two per node, all willing to
	// move to a surviving node if theirs dies.
	spec := func(node string) api.ExperimentSpec {
		return api.ExperimentSpec{
			Node: node, Device: devices[node],
			Monitor:     api.MonitorSpec{SampleRateHz: 100},
			Workload:    api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 120000}},
			Constraints: api.ConstraintsSpec{AllowFallback: true},
		}
	}
	_, builds, err := srv.SubmitCampaign(admin, api.CampaignSpec{
		Experiments: []api.ExperimentSpec{
			spec("node1"), spec("node2"), spec("node1"), spec("node2"),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign submitted: %d builds across 2 vantage points\n", len(builds))

	start := clock.Now()
	clock.AfterFunc(30*time.Second, func() {
		flaky.Kill()
		fmt.Printf("t=%-6s node2 killed (heartbeats stop)\n", clock.Now().Sub(start))
	})

	// Drive simulated time event-by-event until every build settles,
	// narrating health transitions as they happen.
	lastHealth := map[string]string{}
	for {
		done := true
		for _, b := range builds {
			if !b.State().Terminal() {
				done = false
			}
		}
		if done {
			break
		}
		next, ok := clock.NextDeadline()
		if !ok {
			log.Fatal("campaign stalled")
		}
		clock.RunUntil(next)
		for _, name := range []string{"node1", "node2"} {
			h := srv.NodeHealth(name).Health.String()
			if lastHealth[name] != h {
				fmt.Printf("t=%-6s %s is %s\n", clock.Now().Sub(start), name, h)
				lastHealth[name] = h
			}
		}
	}

	fmt.Printf("campaign finished at t=%s\n\n", clock.Now().Sub(start))
	for i, b := range builds {
		detail := ""
		if b.Retries() > 0 {
			detail = fmt.Sprintf(" after %d failover(s)", b.Retries())
		}
		fmt.Printf("  build %d: %-8s on %s (attempt %d)%s\n",
			i+1, b.State(), b.NodeName(), b.Attempts(), detail)
	}
	fmt.Println()
	for _, b := range builds {
		evs, _, _ := b.Feed().EventsSince(0)
		for _, e := range evs {
			if e.Phase == api.EventFailover {
				fmt.Printf("  feed: build %d failover — %s\n", e.Build, e.Error)
			}
		}
	}
	fmt.Println("\nall measurements completed on surviving hardware — no build was lost")
}
