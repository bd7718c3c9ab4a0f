package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPerMille(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {39, 500}, {40, 750},
		{99, 750}, {100, 900}, {199, 900}, {200, 950},
		{999, 950}, {1000, 990}, {1_000_000, 990},
	}
	for _, c := range cases {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	var d dist
	for i := 1; i <= 1000; i++ {
		d.add(float64(i))
	}
	var out []metric
	out = percentiles(out, "submit", "ms", &d)
	if len(out) != 2 || out[0].name != "submit_p50_ms" || out[0].value != 500 ||
		out[1].name != "submit_p99_ms" || out[1].value != 990 || out[1].n != 1000 {
		t.Errorf("percentiles over 1..1000 = %+v", out)
	}
	var small dist
	for i := 1; i <= 200; i++ {
		small.add(float64(i))
	}
	out = layerPercentiles(nil, "accessserver.status_handler", "us", &small)
	if len(out) != 2 || out[1].name != "accessserver.status_handler_us_p95" || out[1].value != 190 {
		t.Errorf("layerPercentiles over 1..200 = %+v", out)
	}
}

func TestReservoirKeepsQuantiles(t *testing.T) {
	var d dist
	n := 3 * reservoirCap
	for i := 0; i < n; i++ {
		d.add(float64(i % 1000))
	}
	if d.n() != n || len(d.v) != reservoirCap {
		t.Fatalf("n=%d kept=%d", d.n(), len(d.v))
	}
	if p50 := d.q(500); math.Abs(p50-500) > 15 {
		t.Errorf("p50 of a uniform 0..999 stream = %v", p50)
	}
}

func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := genPlan(w, 7, 0.2), genPlan(w, 7, 0.2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.name)
		}
		if c := genPlan(w, 8, 0.2); reflect.DeepEqual(a.events, c.events) {
			t.Errorf("%s: seeds 7 and 8 gave the same arrival schedule", w.name)
		}
		for i := 1; i < len(a.events); i++ {
			if a.events[i].at < a.events[i-1].at {
				t.Fatalf("%s: arrivals out of order at %d", w.name, i)
			}
		}
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	var clock int64
	tr := &tracer{now: func() int64 { return clock }}
	ln := tr.newLane()

	clock = 0
	ln.beginStep() // accessserver, 0..100
	clock = 10
	ln.begin(layerBench, "backend.batch", 1) // 10..60
	clock = 20
	ln.call(layerFeedhub, obsPostSample, 5) // 5 ns inside the batch
	clock = 30
	ln.begin(layerAccess, "server.done", 1) // 30..45
	clock = 45
	if self := ln.end(); self != 15 {
		t.Errorf("server.done self = %d, want 15", self)
	}
	clock = 60
	if self := ln.end(); self != 50-5-15 {
		t.Errorf("backend.batch self = %d, want 30", self)
	}
	clock = 100
	if acc := ln.endStep(); acc != 50+15 {
		t.Errorf("step accessserver self = %d, want 65 (its own 50 plus the nested done)", acc)
	}
	self := tr.selfByLayer()
	want := [numLayers]int64{layerBench: 30, layerAccess: 65, layerFeedhub: 5}
	if self != want {
		t.Errorf("self by layer = %v, want %v", self, want)
	}
	if ln.active() {
		t.Error("lane still has an open span")
	}
	if n := len(ln.spans); n != 3 || ln.spans[1].parent != ln.spans[0].id || ln.spans[2].parent != ln.spans[1].id {
		t.Errorf("spans %+v: want a three-deep chain", ln.spans)
	}
}

func TestCostGrowth(t *testing.T) {
	var steps []stepRec
	// Four quarters of ten completions each; the deepest quarter (depth
	// 100) costs three times per build what the shallowest (depth 1)
	// does.
	for q, depth := range []int32{1, 50, 100, 10} {
		cost := int64(10)
		if q == 2 {
			cost = 30
		}
		for i := 0; i < 10; i++ {
			steps = append(steps, stepRec{self: cost, depth: depth, done: 1})
		}
	}
	if g := costGrowth(steps); math.Abs(g-3) > 1e-9 {
		t.Errorf("costGrowth = %v, want 3", g)
	}
}

// TestTinyRuns runs each workload at a small scale: both rounds must
// pass every output check, the same seed must give the same queue
// waits, and corrupting an expected outcome count must fail the check.
func TestTinyRuns(t *testing.T) {
	scales := map[string]float64{"queue_depth": 0.05, "live_stream": 0.1, "federated": 0.15}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 3, traced: true, dir: t.TempDir(), start: time.Now()}
			rr, err := measure(w, o, scales[w.name])
			if err != nil {
				t.Fatal(err)
			}
			if len(rr.rounds) != minRounds || !rr.rounds[0].traced || rr.rounds[1].traced {
				t.Fatalf("want %d rounds, the second untraced; got %d", minRounds, len(rr.rounds))
			}
			for i, r := range rr.rounds {
				if len(r.checks) > 0 {
					t.Fatalf("round %d failed its checks: %s", i+1, strings.Join(r.checks, "; "))
				}
				if r.builds != len(rr.p.builds) {
					t.Fatalf("round %d: %d of %d builds terminal", i+1, r.builds, len(rr.p.builds))
				}
			}
			for _, r := range rr.rounds[1:] {
				if r.waitHash != rr.rounds[0].waitHash {
					t.Error("queue waits differ between two rounds of one seed")
				}
			}
			if len(rr.endToEnd()) == 0 || len(rr.perLayer()) == 0 || len(rr.properties()) == 0 {
				t.Error("a metric table is empty")
			}

			res := rr.rounds[1]
			if c := checkOutcomes(rr.p, res); len(c) > 0 {
				t.Fatalf("checkOutcomes on the real plan: %v", c)
			}
			corrupt := *rr.p
			corrupt.builds = append([]buildPlan(nil), rr.p.builds...)
			switch {
			case w.federated:
				corrupt.builds[0].peer = !corrupt.builds[0].peer
			case corrupt.builds[0].cancelAfter > 0:
				corrupt.builds[0].cancelAfter = 0
			default:
				corrupt.builds[0].cancelAfter = time.Second
			}
			if c := checkOutcomes(&corrupt, res); len(c) == 0 {
				t.Error("checkOutcomes passed a corrupted expected count")
			}

			var out bytes.Buffer
			if code := run(&out, w, runOpts{seed: 3, dir: t.TempDir(), start: time.Now()}, scales[w.name]); code != 0 {
				t.Fatalf("untraced tiny run exited %d:\n%s", code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted == 0 || line.Failed != 0 || len(line.Metrics) != len(endToEndJSON) {
				t.Errorf("result line %+v", line)
			}
			for _, name := range endToEndJSON {
				if m := line.Metrics[name]; m.Value <= 0 {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		})
	}
}
