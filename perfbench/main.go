// Command perfbench is BatteryLab's build-lifecycle benchmark. It drives
// an in-process access server on the virtual clock through its public
// surfaces (v1 HTTP, remote.Platform, feedgw.Gateway, remote.Relay,
// store.Open and AttachStore) with one of three generated workloads,
// checks the outputs, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a traced run (--trace 1). The last line of
// standard output is one JSON object. See README.md.
//
//	go run . --workload queue_depth --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// maxRun bounds how long a run keeps adding rounds while a percentile it
// must report still lacks samples; a run must end within 180 s.
const maxRun = 120 * time.Second

// setupPasses is how many times a run times set-up alone before each
// round; minRounds is the fewest measured rounds a run takes, so its
// per-round medians have a middle.
const (
	setupPasses = 3
	minRounds   = 3
)

func main() {
	start := time.Now()
	name := flag.String("workload", "", "queue_depth, live_stream or federated")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 20, "measured wall seconds (whole rounds)")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build", "scratch directory for WALs and the span dump")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*secs) * time.Second, traced: *traced == 1,
		dir: *dir, start: start, maxRun: maxRun}
	os.Exit(run(os.Stdout, w, opts, 1))
}

type runOpts struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string
	start   time.Time
	// maxRun stops adding rounds even if a reported percentile still
	// lacks samples.
	maxRun time.Duration
}

// run measures one workload and prints the report, returning the exit
// code. scale shrinks the plan (tests run tiny rounds).
func run(out io.Writer, w *workload, o runOpts, scale float64) int {
	rr, err := measure(w, o, scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	attempted, failed := 0, 0
	var checks []string
	for _, r := range rr.rounds {
		attempted += r.attempted
		failed += r.failedOps
		checks = append(checks, r.checks...)
	}
	for i, r := range rr.rounds {
		if r.waitHash != rr.rounds[0].waitHash {
			checks = append(checks, fmt.Sprintf("round %d's queue waits differ from round 1's under the same seed", i+1))
		}
	}
	fmt.Fprintf(out, "workload %s seed %d: %d rounds (%d traced), %d builds each\n",
		w.name, o.seed, len(rr.rounds), len(rr.pick(true)), len(rr.p.builds))
	for i, r := range rr.rounds {
		fmt.Fprintf(out, "  round %2d traced=%-5v setup %8.4f s  measured %7.3f s  %8.1f builds/s  %7.3f cpu ms/build\n",
			i+1, r.traced, r.setup.Seconds(), r.wall.Seconds(), float64(r.builds)/r.wall.Seconds(), ms(r.cpu)/float64(r.builds))
	}
	fmt.Fprintln(out, "properties:")
	printMetrics(out, rr.properties())
	result := map[string]any{"correct": len(checks) == 0, "attempted": attempted, "failed": failed}
	if len(checks) > 0 {
		fmt.Fprintln(out, "checks: FAIL")
		for _, c := range checks {
			fmt.Fprintln(out, "  "+c)
		}
		result["metrics"] = map[string]any{}
		printJSON(out, result)
		return 1
	}
	fmt.Fprintln(out, "checks: pass")
	var ms []metric
	names := endToEndJSON
	if e2e := rr.endToEnd(); len(e2e) > 0 {
		fmt.Fprintln(out, "end-to-end:")
		printMetrics(out, e2e)
		ms = e2e
	}
	if o.traced {
		pl := rr.perLayer()
		fmt.Fprintln(out, "per-layer:")
		printMetrics(out, pl)
		fmt.Fprintln(out, "traced self time by layer:")
		rr.layerTable(out)
		ms, names = pl, perLayerJSON
		if tr := rr.pick(true); len(tr) > 0 {
			path := filepath.Join(o.dir, "spans-"+w.name+".csv.gz")
			if err := tr[len(tr)-1].tr.dump(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
				return 1
			}
			fmt.Fprintln(out, "spans of the last traced round:", path)
		}
	}
	sel, err := selectJSON(ms, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	result["metrics"] = sel
	printJSON(out, result)
	return 0
}

func printJSON(out io.Writer, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintln(out, string(b))
}

// measure runs rounds of the workload's plan until the measured time is
// spent and every reported percentile has its samples. With tracing,
// every fourth round (the second of each four) runs untraced, so the
// run also measures the tracing overhead.
func measure(w *workload, o runOpts, scale float64) (*runResult, error) {
	rr := &runResult{w: w, p: genPlan(w, o.seed, scale)}
	// Set-up is timed alone once from process start, then setupPasses
	// times before every round, and once more as each round's own
	// set-up; setup_s is the median of all of them, spread over the run.
	// It is CPU time: the work set-up does, which another tenant of the
	// host stretches far less than it stretches wall time.
	timeSetup := func(startCPU time.Duration) error {
		res, err := runRound(w, rr.p, roundOpts{dir: o.dir, start: time.Now(), startCPU: startCPU, seed: o.seed, setupOnly: true})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rr.setups = append(rr.setups, res.setup.Seconds())
		return nil
	}
	if err := timeSetup(0); err != nil {
		return nil, err
	}
	// A warm-up round on a quarter-size plan of the same seed runs the
	// code paths and grows the heap before anything is timed. It is
	// checked like any round but measures nothing.
	warm, err := runRound(w, genPlan(w, o.seed, scale/4), roundOpts{dir: o.dir, start: time.Now(), seed: o.seed})
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	if len(warm.checks) > 0 {
		rr.rounds = append(rr.rounds, warm)
		return rr, nil
	}
	expected := map[string][]byte{}
	for i := 0; ; i++ {
		// Collect the last round's garbage before the next set-up, so
		// no round pays for its predecessor's heap.
		runtime.GC()
		for k := 0; k < setupPasses; k++ {
			if err := timeSetup(processCPU()); err != nil {
				return nil, err
			}
		}
		ro := roundOpts{traced: o.traced && i%4 != 1, dir: o.dir, start: time.Now(), startCPU: processCPU(),
			seed: o.seed, expected: expected}
		res, err := runRound(w, rr.p, ro)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		if res.traced {
			// Only the last traced round's spans are dumped.
			for _, prev := range rr.rounds {
				prev.tr = nil
			}
		}
		rr.rounds = append(rr.rounds, res)
		rr.setups = append(rr.setups, res.setup.Seconds())
		if len(res.checks) > 0 {
			return rr, nil
		}
		elapsed := time.Since(o.start)
		if i+1 >= minRounds && elapsed >= o.seconds && rr.complete(o.traced) {
			return rr, nil
		}
		if i+1 >= minRounds && elapsed >= o.maxRun {
			return rr, nil
		}
	}
}

// complete reports whether every metric the output line carries has
// been measured with enough samples.
func (rr *runResult) complete(traced bool) bool {
	if traced {
		if len(rr.pick(false)) == 0 {
			return false
		}
		_, err := selectJSON(rr.perLayer(), perLayerJSON)
		return err == nil
	}
	_, err := selectJSON(rr.endToEnd(), endToEndJSON)
	return err == nil
}
