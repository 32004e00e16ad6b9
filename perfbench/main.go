// Command perfbench is the repository benchmark. It runs one named workload
// at a given seed, checks every output it produces, and prints one JSON
// result line:
//
//	perfbench -workload apps-inmem|miner-ooc|served-mix -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run. Layers are timed
// from outside, through public calls only: the kaleido apps, Engine and
// Miner API, the exported functions of internal/explore, internal/pattern
// and internal/eigen, and kaleidod's HTTP API. See README.md for the
// workloads and the layer-to-metric map; perfbench/run.py builds this
// program and the daemon from source and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric. The lists below are the single
// source of the names, units and directions that BENCHMARK.json repeats
// (the self-check test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are reported by every workload, each with the
// workload-specific meaning README.md tabulates.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"work_s", "s", "lower"},
	{"tail_s", "s", "lower"},
}

// traceCommon are the per-layer metrics every workload's traced run
// measures: the traced figures of work_s and tail_s and their difference
// from an untraced measurement, and the failure fraction.
var traceCommon = []metricDef{
	{"trace.work_s", "s", "lower"},
	{"trace.work_overhead_s", "s", "lower"},
	{"trace.tail_s", "s", "lower"},
	{"trace.tail_overhead_s", "s", "lower"},
	{"failed_frac", "ratio", "lower"},
}

// layerMetrics are the per-layer metrics each workload's traced run must
// measure besides traceCommon.
var layerMetrics = map[string][]metricDef{
	"apps-inmem": {
		{"motif4_s", "s", "lower"},
		{"fsm4_s", "s", "lower"},
		{"clique6_s", "s", "lower"},
		{"explore.expand_s", "s", "lower"},
		{"explore.visit_self_s", "s", "lower"},
		{"pattern.build_s", "s", "lower"},
		{"eigen.hash_s", "s", "lower"},
		{"apps.aggregate_s", "s", "lower"},
		{"eigen.hash_calls", "count", "lower"},
		{"pattern.distinct_keys", "count", "lower"},
		{"eigen.classes", "count", "lower"},
		{"memtrack.peak_bytes.motif4", "bytes", "lower"},
		{"memtrack.peak_bytes.fsm4", "bytes", "lower"},
		{"memtrack.peak_bytes.clique6", "bytes", "lower"},
	},
	"miner-ooc": {
		{"ooc_expand_s", "s", "lower"},
		{"ooc_scan_s", "s", "lower"},
		{"ooc_peak_frac", "ratio", "lower"},
		{"ooc_disk_ratio", "ratio", "lower"},
		{"explore.expand_top_s", "s", "lower"},
		{"explore.expand_top_inmem_s", "s", "lower"},
		{"storage.expand_delta_s", "s", "lower"},
		{"storage.scan_delta_s", "s", "lower"},
		{"kaleido.scan_1t_s", "s", "lower"},
		{"kaleido.scan_scaling", "ratio", "higher"},
		{"storage.spilled_parts", "count", "lower"},
		{"storage.compressed_parts", "count", "lower"},
		{"storage.promoted_parts", "count", "lower"},
		{"storage.spilled_bytes_logical", "bytes", "lower"},
		{"storage.spilled_bytes_physical", "bytes", "lower"},
		{"storage.read_bytes", "bytes", "lower"},
		{"storage.write_bytes", "bytes", "lower"},
		{"storage.io_retries", "count", "lower"},
		{"storage.top_parts_mem", "count", "higher"},
		{"storage.top_parts_cmem", "count", "lower"},
		{"storage.top_parts_disk", "count", "lower"},
		{"memtrack.peak_bytes", "bytes", "lower"},
	},
	"served-mix": {
		{"served_p50_ms", "ms", "lower"},
		{"served_p95_ms", "ms", "lower"},
		{"served_jobs_per_s", "1/s", "higher"},
		{"served.jobs", "count", "higher"},
		{"served.late_ms_max", "ms", "lower"},
		{"service.submit_ms_p50", "ms", "lower"},
		{"service.cache_hit_frac", "ratio", "higher"},
		{"service.cache_loads", "count", "lower"},
		{"admission.wait_ms_p50", "ms", "lower"},
		{"admission.wait_ms_p95", "ms", "lower"},
		{"admission.queued_max", "count", "lower"},
		{"engine.peak_frac", "ratio", "lower"},
		{"engine.run_ms_p50.tc", "ms", "lower"},
		{"engine.run_ms_p50.clique4", "ms", "lower"},
		{"engine.run_ms_p50.clique5", "ms", "lower"},
		{"engine.run_ms_p50.motif3", "ms", "lower"},
		{"engine.run_ms_p50.fsm3c", "ms", "lower"},
		{"engine.run_ms_p50.fsm3p", "ms", "lower"},
	},
}

// perLayer is every per-layer metric, in BENCHMARK.json's order. A traced
// run reports them all, 0 for the layers its workload does not exercise.
var perLayer = concatDefs(traceCommon, layerMetrics["apps-inmem"], layerMetrics["miner-ooc"], layerMetrics["served-mix"])

func concatDefs(lists ...[]metricDef) []metricDef {
	var all []metricDef
	for _, l := range lists {
		all = append(all, l...)
	}
	return all
}

// ownLayer is the set of per-layer metrics a workload's traced run must
// measure.
func ownLayer(workload string) map[string]bool {
	own := map[string]bool{}
	for _, d := range concatDefs(traceCommon, layerMetrics[workload]) {
		own[d.name] = true
	}
	return own
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool   // eightfold smaller graphs, for the self-check
	tamper   bool   // corrupt one expected answer, for the self-check
	daemon   string // kaleidod binary (served-mix)
	workdir  string // scratch directory for spill files, graph files, logs
}

// outcome collects what a workload measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// layerValues returns the per-layer metrics measured, with failed_frac.
func (o *outcome) layerValues() map[string]float64 {
	if o.attempted > 0 {
		o.layer["failed_frac"] = float64(o.failed) / float64(o.attempted)
	}
	return o.layer
}

// expect records a correctness problem unless ok holds.
func (o *outcome) expect(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (o *outcome) op(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

var workloads = map[string]func(context.Context, *options, *outcome) error{
	"apps-inmem": runAppsInmem,
	"miner-ooc":  runMinerOOC,
	"served-mix": runServedMix,
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: apps-inmem, miner-ooc or served-mix")
	flag.Int64Var(&opt.seed, "seed", 0, "input seed: permutes vertex ids and the arrival schedule (0 = generator ids)")
	flag.Float64Var(&opt.seconds, "seconds", 34, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&opt.toy, "toy", false, "eightfold smaller graphs (self-check)")
	flag.BoolVar(&opt.tamper, "tamper", false, "corrupt one expected answer (self-check)")
	flag.StringVar(&opt.daemon, "daemon", "", "kaleidod binary (served-mix)")
	flag.StringVar(&opt.workdir, "workdir", "", "scratch directory (required)")
	flag.Parse()
	opt.trace = trace == 1
	run, ok := workloads[opt.workload]
	if !ok || opt.workdir == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload apps-inmem|miner-ooc|served-mix -seed N -seconds S -trace 0|1 -workdir DIR")
		os.Exit(2)
	}

	fmt.Println("# " + envStamp())
	out := newOutcome()
	err := run(context.Background(), &opt, out)
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: WRONG: %s\n", p)
	}
	if err == nil {
		err = emit(&opt, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

// emit prints the metric table and the final JSON result line. Every
// end-to-end metric, or in a traced run every per-layer metric of the
// workload's own layers, must have been measured.
func emit(opt *options, out *outcome) error {
	defs, vals := endToEnd, out.e2e
	if opt.trace {
		defs, vals = perLayer, out.layerValues()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	own := ownLayer(opt.workload)
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			if !opt.trace || own[d.name] {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			v = 0 // a layer this workload does not exercise
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("# %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// envStamp identifies the machine a result was taken on, so numbers from
// different core counts are never compared.
func envStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d cpu=%q go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// note prints one human-readable line ahead of the result.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// A workload repeats its set-up at least setupReps times and for at least
// setupSeconds, and reports the median. A set-up takes tens to hundreds of
// milliseconds, so many repetitions are cheap, and spreading them over a
// second or more evens out the machine's short bursts of contention.
const (
	setupReps    = 15
	setupSeconds = 1.5
)

// timeSetup runs setup repeatedly, each time after a collection so earlier
// repetitions' garbage is not charged to it, and records the median time as
// setup_s. The last repetition's products stay in use; teardown, when
// non-nil, releases each earlier repetition's products, untimed. Toy runs
// skip the minimum time.
func timeSetup(opt *options, out *outcome, setup, teardown func() error) error {
	var times []float64
	for total := 0.0; ; {
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return err
		}
		times = append(times, time.Since(t).Seconds())
		total += times[len(times)-1]
		if len(times) >= setupReps && (opt.toy || total >= setupSeconds) {
			break
		}
		if teardown != nil {
			if err := teardown(); err != nil {
				return err
			}
		}
	}
	out.e2e["setup_s"] = median(times)
	note("setup_s: %d repetitions, quartiles %.4f %.4f %.4f", len(times), quantile(times, 0.25), median(times), quantile(times, 0.75))
	return nil
}

// roomFor reports whether a measurement loop that started at start has
// time for another round lasting about as long as the last one, last.
func roomFor(start time.Time, last, seconds float64) bool {
	return time.Since(start).Seconds()+last <= seconds
}
