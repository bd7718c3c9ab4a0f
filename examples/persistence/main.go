// Persistence tour: the access server survives a crash mid-campaign.
//
// Process one attaches a WAL+snapshot store, enforces the §5 credit
// economy, and starts a four-run idle campaign — then "crashes" 30
// simulated seconds in, with two builds mid-measurement and two
// queued. Process two rebuilds the platform from scratch (fresh
// virtual clock, fresh simulated vantage points with the same seeds)
// over the same store directory: replaying snapshot+WAL brings back
// the users (tokens intact), the ledger, the campaign and every
// build; the interrupted runs go through the failover machinery and
// the campaign completes. Entirely deterministic under the virtual
// clock.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"batterylab"
	"batterylab/internal/accessserver"
	"batterylab/internal/accessserver/schedsim"
	"batterylab/internal/accessserver/store"
	"batterylab/internal/api"
	"batterylab/internal/simclock"
)

// boot assembles a two-node platform and attaches the store — the
// documented recovery order: spec backend, nodes, then AttachStore.
func boot(dir string) (*simclock.Virtual, *accessserver.Server, map[string]string, *store.Store, accessserver.RecoveryStats) {
	clock := batterylab.VirtualClock()
	plat, err := batterylab.NewPlatform(clock, 2019)
	if err != nil {
		log.Fatal(err)
	}
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
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := plat.Access.AttachStore(st)
	if err != nil {
		log.Fatal(err)
	}
	return clock, plat.Access, devices, st, stats
}

func main() {
	dir, err := os.MkdirTemp("", "blab-persistence")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- process one: submit, run a bit, crash ----
	clock1, srv1, devices, st1, _ := boot(dir)
	srv1.SetCreditEnforcement(true)
	boss, err := srv1.Users.Add("boss", accessserver.RoleExperimenter)
	if err != nil {
		log.Fatal(err)
	}
	srv1.Ledger.Grant("boss", 100, "starter grant")

	spec := func(node string) api.ExperimentSpec {
		return api.ExperimentSpec{
			Node: node, Device: devices[node],
			Monitor:  api.MonitorSpec{SampleRateHz: 100},
			Workload: api.WorkloadSpec{Name: "idle", Params: api.Params{"duration_ms": 120000}},
		}
	}
	campID, builds, err := srv1.SubmitCampaign(boss, api.CampaignSpec{Experiments: []api.ExperimentSpec{
		spec("node1"), spec("node2"), spec("node1"), spec("node2"),
	}})
	if err != nil {
		log.Fatal(err)
	}
	clock1.Advance(30 * time.Second)
	fmt.Printf("process 1: campaign %d, 30s in:\n", campID)
	for i, b := range builds {
		fmt.Printf("  build %d: %-7s on %s\n", i+1, b.State(), b.NodeName())
	}
	st1.Close()
	fmt.Println("process 1: CRASH (store closed, everything in memory lost)")

	// ---- process two: recover and finish ----
	// Enforcement is configuration, not state: each process turns it on
	// (the daemon's -credits flag); the balances themselves replay.
	clock2, srv2, _, _, stats := boot(dir)
	srv2.SetCreditEnforcement(true)
	fmt.Printf("process 2: recovered %d users, %d builds (%d requeued, %d resumed via failover), %d ledger entries\n",
		stats.Users, stats.Builds, stats.Requeued, stats.Resumed, stats.Ledger)
	if _, err := srv2.Users.Authenticate(boss.Token); err != nil {
		log.Fatal("boss token lost: ", err)
	}
	fmt.Println("process 2: boss token still valid")

	ids, err := srv2.CampaignBuildIDs(campID)
	if err != nil {
		log.Fatal(err)
	}
	var members []*accessserver.Build
	for _, id := range ids {
		b, err := srv2.Build(id)
		if err != nil {
			log.Fatal(err)
		}
		members = append(members, b)
	}
	if err := schedsim.Drive(clock2, members, 24*time.Hour); err != nil {
		log.Fatal(err)
	}
	fmt.Println("process 2: campaign completed after restart:")
	for i, b := range members {
		retried := ""
		if b.Retries() > 0 {
			retried = fmt.Sprintf(" (failover retry %d)", b.Retries())
		}
		fmt.Printf("  build %d: %-7s on %s%s\n", i+1, b.State(), b.NodeName(), retried)
	}
	fmt.Printf("ledger: boss balance %.1f after charges\n", srv2.Ledger.Balance("boss"))
}
