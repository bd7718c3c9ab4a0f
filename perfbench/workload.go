package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"batterylab/internal/api"
)

// workload is one traffic mix. Everything a run submits is derived from
// the workload and the seed by genPlan; the server receives only those
// generated inputs.
type workload struct {
	name string
	// nodes is the vantage points per server; federated runs two
	// servers of this size. prefix names the home server's nodes
	// (prefix-00, prefix-01, ...); the peer's are peerPrefix-NN.
	nodes     int
	prefix    string
	tenants   int
	runCap    int // Config.OwnerRunCap, the fair-share bound (0: none)
	federated bool
	// follow makes the second connection follow the binary sample
	// stream of every build (federated: of every routed build) instead
	// of polling status; status reads then ride the writer's connection.
	follow bool
	// gateway alternates followed streams between the server and a
	// feedgw.Gateway in front of it.
	gateway bool
	// analytics is the number of analytics queries per finished build.
	analytics int
	// statusPerBuild is the status reads made per submitted build.
	statusPerBuild int
	// saveTrace makes each run store a current.trace artifact.
	saveTrace bool
	gen       func(w *workload, rng *rand.Rand, scale float64) *plan
}

var workloads = []*workload{
	{
		// Scheduler stress: offered load far above capacity, so the
		// backlog reaches thousands while the feed layer idles.
		name: "queue_depth", nodes: 64, prefix: "qd", tenants: 4, runCap: 24,
		statusPerBuild: 1, gen: genQueueDepth,
	},
	{
		// Data-plane stress: a small fleet below capacity with 1 kHz
		// sample streams, a gateway and analytics; the scheduler idles.
		name: "live_stream", nodes: 8, prefix: "ls", tenants: 2,
		follow: true, gateway: true, analytics: 4, statusPerBuild: 2, saveTrace: true,
		gen: genLiveStream,
	},
	{
		// Peer relay: two servers on one clock, half the builds pinned
		// to vantage points only the peer advertises.
		name: "federated", nodes: 8, prefix: "fa", tenants: 2, federated: true,
		follow: true, statusPerBuild: 2, saveTrace: true,
		gen: genFederated,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildPlan is one build as the generator intends it.
type buildPlan struct {
	tenant int
	node   string
	peer   bool // pinned to a vantage point only the peer advertises
	dur    time.Duration
	rateHz int
	seed   uint64 // sample values
	// cancelAfter, when non-zero, cancels the build this long after its
	// submit. It is always shorter than dur, so the cancel lands while
	// the build is queued or running and the build ends aborted.
	cancelAfter time.Duration
	queries     []query
}

// query is one analytics request; repeat marks an exact repeat of an
// earlier query on the same build, which the server's cache can answer.
type query struct {
	q      api.AnalyticsQuery
	repeat bool
}

// event is one arrival on the virtual clock: a submit of one build
// (POST /experiments) or several (POST /campaigns), or a cancel.
type event struct {
	at     time.Duration
	tenant int
	keys   []int // submitted builds; nil for a cancel
	cancel int   // plan key of the build to cancel
}

// plan is the whole generated input of one round.
type plan struct {
	builds []buildPlan
	events []event
	// window is the arrival window, for the offered-load property.
	window time.Duration
}

func genPlan(w *workload, seed int64, scale float64) *plan {
	p := w.gen(w, rand.New(rand.NewSource(seed)), scale)
	// Cancels follow their build's submit; stable order keeps a submit
	// ahead of a cancel due at the same instant.
	submitAt := map[int]time.Duration{}
	for _, ev := range p.events {
		for _, k := range ev.keys {
			submitAt[k] = ev.at
		}
	}
	for k, b := range p.builds {
		if b.cancelAfter > 0 {
			p.events = append(p.events, event{at: submitAt[k] + b.cancelAfter, tenant: b.tenant, cancel: k})
		}
	}
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].at < p.events[j].at })
	return p
}

// peerPrefix names the federated peer's nodes.
const peerPrefix = "fb"

func nodeName(prefix string, i int) string { return fmt.Sprintf("%s-%02d", prefix, i) }

func seconds(rng *rand.Rand, lo, hi int) time.Duration {
	return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Second
}

// genQueueDepth: 300 singles spread evenly (one per second, jittered)
// over a 300 s window plus an 800-build campaign every 75 s from 30 s,
// against 64 nodes running 10-30 s builds (capacity ~3.2 builds/s), so
// the backlog passes 2,500. Builds take nodes round-robin in a seeded
// order, so every node gets the same share whatever the seed. 4% of
// builds are canceled 1-9 s after submit, which covers queued aborts
// and, early on, running ones.
func genQueueDepth(w *workload, rng *rand.Rand, scale float64) *plan {
	sec := func(s float64) time.Duration { return time.Duration(s * scale * float64(time.Second)) }
	p := &plan{window: sec(300)}
	singles := max(1, int(300*scale))
	burst := int(800 * scale)
	if burst < 4 {
		burst = 4
	}
	nodes := rng.Perm(w.nodes)
	add := func(tenant int) int {
		b := buildPlan{
			tenant: tenant,
			node:   nodeName(w.prefix, nodes[len(p.builds)%w.nodes]),
			dur:    seconds(rng, 10, 30),
			rateHz: 1,
			seed:   rng.Uint64(),
		}
		if rng.Intn(100) < 4 {
			b.cancelAfter = seconds(rng, 1, 9)
		}
		p.builds = append(p.builds, b)
		return len(p.builds) - 1
	}
	gap := p.window / time.Duration(singles)
	nextBurst := sec(30)
	campaign := 0
	for i := 0; i < singles; i++ {
		at := time.Duration(i)*gap + time.Duration(rng.Int63n(int64(gap))).Round(time.Millisecond)
		for nextBurst <= at {
			ev := event{at: nextBurst, tenant: campaign % w.tenants}
			for j := 0; j < burst; j++ {
				ev.keys = append(ev.keys, add(ev.tenant))
			}
			p.events = append(p.events, ev)
			campaign++
			nextBurst += sec(75)
		}
		k := add(rng.Intn(w.tenants))
		p.events = append(p.events, event{at: at, tenant: p.builds[k].tenant, keys: []int{k}})
	}
	return p
}

// genLiveStream: 120 builds, one every 0.5-1.5 s, each 4-8 s at 1 kHz,
// round-robin over 8 nodes. At most 16 builds are ever in the system,
// so the backlog never exceeds the fleet.
func genLiveStream(w *workload, rng *rand.Rand, scale float64) *plan {
	n := max(1, int(120*scale))
	gaps := spread(rng, n, 500*time.Millisecond, 1500*time.Millisecond, time.Millisecond)
	durs := spread(rng, n, 4*time.Second, 8*time.Second, 100*time.Millisecond)
	p := &plan{}
	var at time.Duration
	windows := []time.Duration{0, 100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second}
	fieldSets := [][]string{nil, {api.AnalyticsFieldMean}, {api.AnalyticsFieldEnergy, api.AnalyticsFieldMean},
		{api.AnalyticsFieldQuantiles}, {api.AnalyticsFieldMinMax, api.AnalyticsFieldQuantiles}}
	for k := 0; k < n; k++ {
		at += gaps[k]
		b := buildPlan{
			tenant: rng.Intn(w.tenants),
			node:   nodeName(w.prefix, k%w.nodes),
			dur:    durs[k],
			rateHz: 1000,
			seed:   rng.Uint64(),
		}
		for i := 0; i < w.analytics; i++ {
			if i > 0 && rng.Intn(2) == 0 {
				b.queries = append(b.queries, query{q: b.queries[rng.Intn(i)].q, repeat: true})
				continue
			}
			q := query{q: api.AnalyticsQuery{WindowNS: int64(windows[rng.Intn(len(windows))]), Fields: fieldSets[rng.Intn(len(fieldSets))]}}
			for _, prev := range b.queries {
				if sameQuery(prev.q, q.q) {
					q.repeat = true
				}
			}
			b.queries = append(b.queries, q)
		}
		p.builds = append(p.builds, b)
		p.events = append(p.events, event{at: at, tenant: b.tenant, keys: []int{k}})
	}
	p.window = at
	return p
}

// spread returns n values evenly spaced over [lo, hi], rounded to step,
// in a seeded order: every seed gets the same total, only the order
// changes.
func spread(rng *rand.Rand, n int, lo, hi, step time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		v := lo
		if n > 1 {
			v += (hi - lo) * time.Duration(i) / time.Duration(n-1)
		}
		out[i] = v.Round(step)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func sameQuery(a, b api.AnalyticsQuery) bool {
	if a.WindowNS != b.WindowNS || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	return true
}

// genFederated: 80 builds, one every 1-2 s, each 2-4 s at 100 Hz;
// exactly half, chosen by the seed, pinned round-robin to the peer's 8 nodes, the rest to the
// home server's. A node is reused only every 8 builds of its kind, at
// least 8 s later, so no build queues behind a relay.
func genFederated(w *workload, rng *rand.Rand, scale float64) *plan {
	n := max(1, int(80*scale))
	gaps := spread(rng, n, time.Second, 2*time.Second, time.Millisecond)
	durs := spread(rng, n, 2*time.Second, 4*time.Second, 100*time.Millisecond)
	p := &plan{}
	var at time.Duration
	routed, local := 0, 0
	peer := make([]bool, n)
	for k := 0; k < n/2; k++ {
		peer[k] = true
	}
	rng.Shuffle(n, func(i, j int) { peer[i], peer[j] = peer[j], peer[i] })
	for k := 0; k < n; k++ {
		at += gaps[k]
		b := buildPlan{
			tenant: rng.Intn(w.tenants),
			peer:   peer[k],
			dur:    durs[k],
			rateHz: 100,
			seed:   rng.Uint64(),
		}
		if b.peer {
			b.node = nodeName(peerPrefix, routed%w.nodes)
			routed++
		} else {
			b.node = nodeName(w.prefix, local%w.nodes)
			local++
		}
		p.builds = append(p.builds, b)
		p.events = append(p.events, event{at: at, tenant: b.tenant, keys: []int{k}})
	}
	p.window = at
	return p
}
