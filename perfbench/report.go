package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"batterylab/internal/accessserver/feedhub"
)

// metric is one reported number. n is the sample count behind a
// percentile or median (0 for other metrics).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// endToEndJSON and perLayerJSON are the metrics the last output line
// carries with --trace 0 and --trace 1: those every workload produces.
// The printed tables carry every metric a workload exercises.
// Wall-clock rates and most latencies are printed but not carried: on a
// 2-vCPU host shared with other tenants, minutes of contention slowed
// whole runs by up to 40%, and builds_per_s, submit_p50_ms and the p99s
// spread past 0.25 across seeds. CPU time per build moves much less.
var endToEndJSON = []string{
	"setup_s", "cpu_ms_per_build", "status_p50_ms", "peak_rss_mb",
}

var perLayerJSON = []string{
	"accessserver.step_self_us_p50", "accessserver.step_self_us_p99", "accessserver.cost_growth",
	"accessserver.submit_handler_us_p50", "accessserver.submit_handler_us_p99",
	"accessserver.status_handler_us_p50", "accessserver.status_handler_us_p99",
	"accessserver.lock_acq_per_build", "accessserver.heartbeats", "accessserver.dispatched",
	"accessserver.useful_dispatch_ratio",
	"store.appends_per_build", "store.bytes_per_build", "store.fsync_p50_us", "store.fsync_p99_us",
	"store.snapshots", "store.snapshot_ms",
	"feedhub.post_sample_us_p50", "feedhub.post_sample_us_p99",
	"feedhub.post_event_us_p50", "feedhub.post_event_us_p99",
	"remote.client_overhead_us_p50",
	"runtime.alloc_bytes_per_build", "runtime.allocs_per_build", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"bench.trace_overhead",
}

// pctName labels a percentile: 500 -> "p50", 990 -> "p99", 950 -> "p95".
func pctName(pm int) string {
	return "p" + strconv.FormatFloat(float64(pm)/10, 'f', -1, 64)
}

// percentiles reports d's median and highest qualifying tail as
// <base>_<pct>_<unit>, each only when ten samples lie beyond it.
func percentiles(out []metric, base, unit string, d *dist) []metric {
	n := d.n()
	if beyond(n, 500) >= 10 {
		out = append(out, metric{base + "_p50_" + unit, unit, d.q(500), n})
	}
	if pm := tailPerMille(n); pm > 500 {
		out = append(out, metric{base + "_" + pctName(pm) + "_" + unit, unit, d.q(pm), n})
	}
	return out
}

// latencies reports a client latency over rounds: the median of the
// rounds' medians, and the tail of all rounds pooled, each only when ten
// samples lie beyond it.
func latencies(out []metric, base, unit string, rounds []*dist) []metric {
	var all dist
	var medians []float64
	for _, d := range rounds {
		all.merge(d)
		if d.n() > 0 {
			medians = append(medians, d.q(500))
		}
	}
	n := all.n()
	if beyond(n, 500) >= 10 {
		out = append(out, metric{base + "_p50_" + unit, unit, median(medians), n})
	}
	if pm := tailPerMille(n); pm > 500 {
		out = append(out, metric{base + "_" + pctName(pm) + "_" + unit, unit, all.q(pm), n})
	}
	return out
}

// layerPercentiles is percentiles for per-layer names, which put the
// unit before the percentile (accessserver.step_self_us_p50).
func layerPercentiles(out []metric, base, unit string, d *dist) []metric {
	n := d.n()
	if beyond(n, 500) >= 10 {
		out = append(out, metric{base + "_" + unit + "_p50", unit, d.q(500), n})
	}
	if pm := tailPerMille(n); pm > 500 {
		out = append(out, metric{base + "_" + unit + "_" + pctName(pm), unit, d.q(pm), n})
	}
	return out
}

// runResult is every round of one run.
type runResult struct {
	w      *workload
	p      *plan
	rounds []*roundResult
	setups []float64 // every set-up time, seconds
}

func (rr *runResult) pick(traced bool) []*roundResult {
	var out []*roundResult
	for _, r := range rr.rounds {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func sumWall(rs []*roundResult) (builds int, wall time.Duration) {
	for _, r := range rs {
		builds += r.builds
		wall += r.wall
	}
	return builds, wall
}

// endToEnd computes the user-visible metrics from the untraced rounds.
func (rr *runResult) endToEnd() []metric {
	rs := rr.pick(false)
	if len(rs) == 0 {
		return nil
	}
	out := []metric{{name: "setup_s", unit: "s", value: median(rr.setups), n: len(rr.setups)}}
	// Rates and medians are the median over rounds of each round's
	// value, so one round disturbed by another tenant of the host moves
	// them less than a pooled figure would; tails pool every round.
	var buildRates, sampleRates, cpuPerBuild []float64
	var submit, status, an, open []*dist
	attempted, failed := 0, 0
	for _, r := range rs {
		buildRates = append(buildRates, float64(r.builds)/r.wall.Seconds())
		cpuPerBuild = append(cpuPerBuild, ms(r.cpu)/float64(r.builds))
		submit = append(submit, &r.submitMS)
		status = append(status, &r.statusMS)
		an = append(an, &r.analyticsMS)
		samples := 0
		var opens dist
		for _, s := range r.streams {
			opens.merge(&s.open)
			samples += s.samples
		}
		open = append(open, &opens)
		sampleRates = append(sampleRates, float64(samples)/r.wall.Seconds())
		attempted += r.attempted
		failed += r.failedOps
	}
	out = append(out, metric{name: "builds_per_s", unit: "builds/s", value: median(buildRates), n: len(rs)})
	out = append(out, metric{name: "cpu_ms_per_build", unit: "ms", value: median(cpuPerBuild), n: len(rs)})
	out = latencies(out, "submit", "ms", submit)
	out = latencies(out, "status", "ms", status)
	var waits dist
	for _, x := range rs[0].waits {
		waits.add(x)
	}
	out = percentiles(out, "queue_wait", "s", &waits)
	if rr.w.follow {
		out = append(out, metric{name: "samples_per_s", unit: "samples/s", value: median(sampleRates), n: len(rs)})
		out = latencies(out, "stream_open", "ms", open)
	}
	if rr.w.analytics > 0 {
		out = latencies(out, "analytics", "ms", an)
	}
	out = append(out, metric{name: "peak_rss_mb", unit: "MB", value: peakRSSMB()})
	out = append(out, metric{name: "failed_ratio", unit: "ratio", value: float64(failed) / float64(attempted)})
	return out
}

// perLayer computes the per-layer metrics from the traced rounds, with
// runtime costs and the tracing overhead from the untraced ones.
func (rr *runResult) perLayer() []metric {
	ts := rr.pick(true)
	if len(ts) == 0 {
		return nil
	}
	us := rr.pick(false)
	var out []metric
	var obs [numObs]dist
	var subH, statH, anH, over, compute, relay dist
	var growth []float64
	builds, wall := sumWall(ts)
	var lockAcq int64
	var steps int
	var backlogSum float64
	backlogMax := 0
	var walAppends, walBytes int64
	var fsync50, fsync99, snapMS []float64
	var snaps float64
	var heartbeats, dispatched, shed, success, routed, losses, announces, retries, reconn, hits, misses, sDrop, eDrop float64
	streams := map[string]*streamStats{}
	for _, r := range ts {
		for i := range obs {
			obs[i].merge(r.obs[i])
		}
		for kind, d := range map[string]*dist{"submit": &subH, "status": &statH, "analytics": &anH} {
			if h := r.handler[kind]; h != nil {
				d.merge(h)
			}
		}
		over.merge(&r.clientOverhead)
		compute.merge(&r.computeUS)
		relay.merge(&r.relayMS)
		if !math.IsNaN(r.costGrowth) {
			growth = append(growth, r.costGrowth)
		}
		lockAcq += r.lockAcq
		steps += r.steps
		backlogSum += r.backlogSum
		if r.backlogMax > backlogMax {
			backlogMax = r.backlogMax
		}
		walAppends += r.walAppends
		walBytes += r.walBytes
		if r.fsync.Count > 0 {
			fsync50 = append(fsync50, r.fsync.P50*1e6)
			fsync99 = append(fsync99, r.fsync.P99*1e6)
		}
		snaps += float64(r.snapshot.Count)
		if r.snapshot.Count > 0 {
			snapMS = append(snapMS, r.snapshot.Mean*1e3)
		}
		heartbeats += r.heartbeats
		dispatched += r.dispatched
		shed += r.shed
		success += float64(r.success)
		routed += r.routed
		losses += r.peerLosses
		announces += r.announces
		retries += r.retries
		reconn += r.reconnects
		hits += r.cacheHits
		misses += r.cacheMisses
		sDrop += r.samplesDropped
		eDrop += r.eventsDropped
		for path, s := range r.streams {
			agg := streams[path]
			if agg == nil {
				agg = &streamStats{}
				streams[path] = agg
			}
			agg.streams += s.streams
			agg.samples += s.samples
			agg.bytes += s.bytes
			agg.wall += s.wall
			agg.open.merge(&s.open)
		}
	}
	n := float64(len(ts))
	nb := float64(builds)
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }

	out = layerPercentiles(out, "accessserver.step_self", "us", &obs[obsStepSelf])
	add("accessserver.cost_growth", "ratio", median(growth))
	out = layerPercentiles(out, "accessserver.submit_handler", "us", &subH)
	out = layerPercentiles(out, "accessserver.status_handler", "us", &statH)
	add("accessserver.lock_acq_per_build", "count", float64(lockAcq)/nb)
	add("accessserver.queue_depth_max", "count", float64(backlogMax))
	add("accessserver.queue_depth_mean", "count", backlogSum/float64(steps))
	add("accessserver.heartbeats", "count", heartbeats/n)
	add("accessserver.dispatched", "count", dispatched/n)
	add("accessserver.shed", "count", shed/n)
	add("accessserver.useful_dispatch_ratio", "ratio", success/dispatched)

	add("store.appends_per_build", "count", float64(walAppends)/nb)
	add("store.bytes_per_build", "bytes", float64(walBytes)/nb)
	add("store.fsync_p50_us", "us", median(fsync50))
	add("store.fsync_p99_us", "us", median(fsync99))
	add("store.snapshots", "count", snaps/n)
	add("store.snapshot_ms", "ms", median(snapMS))

	out = layerPercentiles(out, "feedhub.post_sample", "us", &obs[obsPostSample])
	out = layerPercentiles(out, "feedhub.post_event", "us", &obs[obsPostEvent])
	add("feedhub.samples_dropped", "count", sDrop/n)
	add("feedhub.events_dropped", "count", eDrop/n)

	if obs[obsDecode].n() > 0 {
		out = layerPercentiles(out, "api.frame_decode", "us", &obs[obsDecode])
		samples, bytes := 0, int64(0)
		for _, s := range streams {
			samples += s.samples
			bytes += s.bytes
		}
		add("api.bytes_per_sample", "bytes", float64(bytes)/float64(samples))
	}
	if over.n() >= 20 {
		add("remote.client_overhead_us_p50", "us", over.q(500))
	}
	add("remote.retries", "count", retries/n)

	if d, g := streams["direct"], streams["gateway"]; rr.w.gateway && d != nil && g != nil {
		rate := func(s *streamStats) float64 { return float64(s.samples) / s.wall.Seconds() }
		add("feedgw.rate_ratio", "ratio", rate(g)/rate(d))
		add("feedgw.open_extra_ms", "ms", g.open.q(500)-d.open.q(500))
		add("feedgw.reconnects", "count", reconn/n)
	}
	if rr.w.analytics > 0 {
		out = layerPercentiles(out, "analytics.handler", "us", &anH)
		out = layerPercentiles(out, "analytics.compute", "us", &compute)
		add("analytics.cache_hit_ratio", "ratio", hits/(hits+misses))
	}
	if rr.w.federated {
		out = layerPercentiles(out, "cluster.relay", "ms", &relay)
		add("cluster.routed_ratio", "ratio", routed/nb)
		add("cluster.peer_losses", "count", losses/n)
		add("cluster.announces", "count", announces/n)
	}

	rt := us
	if len(rt) == 0 {
		rt = ts
	}
	var alloc, allocs, gcs, pause float64
	rb := 0
	for _, r := range rt {
		alloc += float64(r.allocBytes)
		allocs += float64(r.allocs)
		gcs += float64(r.gcCycles)
		pause += float64(r.gcPauseNS)
		rb += r.builds
	}
	rn := float64(len(rt))
	add("runtime.alloc_bytes_per_build", "bytes", alloc/float64(rb))
	add("runtime.allocs_per_build", "count", allocs/float64(rb))
	add("runtime.gc_cycles", "count", gcs/rn)
	add("runtime.gc_pause_ms", "ms", pause/1e6/rn)
	if len(us) > 0 {
		ub, uw := sumWall(us)
		add("bench.trace_overhead", "ratio", (wall.Seconds()/nb)/(uw.Seconds()/float64(ub))-1)
	}
	return out
}

// properties describes what the workload's inputs were, for later
// changes to cite.
func (rr *runResult) properties() []metric {
	p, w := rr.p, rr.w
	servers := 1
	if w.federated {
		servers = 2
	}
	var dur time.Duration
	routed, queries, repeats := 0, 0, 0
	for _, b := range p.builds {
		dur += b.dur
		if b.peer {
			routed++
		}
		for _, q := range b.queries {
			queries++
			if q.repeat {
				repeats++
			}
		}
	}
	meanDur := dur.Seconds() / float64(len(p.builds))
	capacity := float64(w.nodes*servers) / meanDur
	offered := float64(len(p.builds)) / p.window.Seconds()
	r0 := rr.rounds[0]
	steps, sum, max := 0, 0.0, 0
	for _, r := range rr.rounds {
		steps += r.steps
		sum += r.backlogSum
		if r.backlogMax > max {
			max = r.backlogMax
		}
	}
	out := []metric{
		{name: "fleet_size", unit: "nodes", value: float64(w.nodes * servers)},
		{name: "offered_over_capacity", unit: "ratio", value: offered / capacity},
		{name: "backlog_max", unit: "builds", value: float64(max)},
		{name: "backlog_mean", unit: "builds", value: sum / float64(steps)},
		{name: "samples_per_build_over_feed_cap", unit: "ratio",
			value: float64(r0.samplesPosted) / float64(len(p.builds)) / feedhub.SampleCap},
		{name: "routed_share", unit: "ratio", value: float64(routed) / float64(len(p.builds))},
		{name: "queued_aborts", unit: "builds", value: float64(r0.queuedAborts)},
		{name: "running_aborts", unit: "builds", value: float64(r0.runningAborts)},
	}
	if queries > 0 {
		out = append(out, metric{name: "analytics_repeat_share", unit: "ratio", value: float64(repeats) / float64(queries)})
	}
	return out
}

// layerTable is each layer's traced self time and span count.
func (rr *runResult) layerTable(w io.Writer) {
	var self [numLayers]int64
	var spans [numLayers]int
	total := int64(0)
	for _, r := range rr.pick(true) {
		for i := range self {
			self[i] += r.layerSelf[i]
			spans[i] += r.spanCount[i]
			total += r.layerSelf[i]
		}
	}
	order := make([]int, numLayers)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return self[order[a]] > self[order[b]] })
	fmt.Fprintf(w, "  %-14s %10s %12s %7s\n", "layer", "spans", "self_ms", "share")
	for _, i := range order {
		fmt.Fprintf(w, "  %-14s %10d %12.3f %6.1f%%\n", layer(i), spans[i], float64(self[i])/1e6, 100*float64(self[i])/float64(total))
	}
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		if m.n > 0 {
			fmt.Fprintf(w, "  %-40s %16.6g %-10s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "  %-40s %16.6g %-10s\n", m.name, m.value, m.unit)
		}
	}
}

// selectJSON picks the named metrics, failing if any is missing.
func selectJSON(ms []metric, names []string) (map[string]map[string]any, error) {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.name] = m
	}
	out := map[string]map[string]any{}
	var missing []string
	for _, name := range names {
		m, ok := byName[name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			missing = append(missing, name)
			continue
		}
		out[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
