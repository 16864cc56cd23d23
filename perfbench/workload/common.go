// Package workload runs the benchmark's three workloads and reports
// their metrics: kernel-ladder3 and app-search in-process through the
// harness, service-store against a real mixpd over loopback HTTP.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/report"

	"repro/perfbench/check"
)

// Names lists the workloads in the order BENCHMARK.json declares them.
var Names = []string{"kernel-ladder3", "app-search", "service-store"}

// EndToEnd and PerLayer name every metric with its unit, in report order.
var (
	EndToEnd = []Def{
		{"setup_s", "s"},
		{"campaign_s", "s"},
		{"campaign_p90_s", "s"},
		{"evals_per_s", "1/s"},
		{"restart_s", "s"},
		{"peak_rss_mb", "MB"},
		{"ev_per_campaign", "count"},
		{"sim_analysis_h", "h"},
		{"found_speedup_geomean", "x"},
	}
	PerLayer = perLayer()
)

// SelfLayers are the layers whose self CPU time the traced run reports.
var SelfLayers = []string{"mp", "compile", "kernels", "apps", "bench", "verify", "typedep",
	"perfmodel", "search", "runcache", "store", "harness", "suite", "engine", "telemetry",
	"trace", "mixpd", "gc"}

func perLayer() []Def {
	var d []Def
	for _, l := range SelfLayers {
		d = append(d, Def{l + ".self_ms", "ms"})
	}
	return append(d,
		Def{"harness.resolve_cum_ms", "ms"},
		Def{"engine.archive_cum_ms", "ms"},
		Def{"search.memo_hits", "count"},
		Def{"runcache.hits", "count"},
		Def{"runcache.misses", "count"},
		Def{"runcache.tier_hits", "count"},
		Def{"runcache.tier_writes", "count"},
		Def{"compile.misses", "count"},
		Def{"compile.hits", "count"},
		Def{"compile.stream_replays", "count"},
		Def{"compile.kernels", "count"},
		Def{"store.puts", "count"},
		Def{"store.get_hits", "count"},
		Def{"store.live_mb", "MB"},
		Def{"store.segments", "count"},
		Def{"store.open_ms", "ms"},
		Def{"engine.archive_kb", "KB"},
		Def{"mixpd.submit_ms", "ms"},
		Def{"mixpd.requests", "count"},
		Def{"alloc_mb", "MB"},
		Def{"gc.cycles", "count"},
		Def{"host.calib_ms", "ms"},
		Def{"tracing.overhead_ms", "ms"},
	)
}

// Def is one metric's name and unit.
type Def struct{ Name, Unit string }

// Options selects and sizes one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the length of the timed phase.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics.
	Trace bool
	// Tiny shrinks every workload to a few jobs, for the self-test.
	Tiny bool
	// WorkDir holds the run's scratch files; it is removed at the end.
	WorkDir string
	// Mixpd is the mixpd binary the service workload launches.
	Mixpd string
	// Self is this benchmark's own binary, relaunched for restart_s.
	Self string
	// Log receives the run's progress and its attempted/failed counts.
	Log io.Writer
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Run executes one run of the selected workload. An error means the run
// could not be carried out; failed checks come back as Correct false.
func Run(o Options) (Result, error) {
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(o.WorkDir)
	var vals map[string]float64
	var r Result
	var err error
	calib0 := calibrate()
	switch o.Workload {
	case "kernel-ladder3", "app-search":
		vals, r, err = runInProcess(o)
	case "service-store":
		vals, r, err = runService(o)
	default:
		return Result{}, fmt.Errorf("unknown workload %q (have %s)", o.Workload, strings.Join(Names, ", "))
	}
	if err != nil {
		return Result{}, err
	}
	calib1 := calibrate()
	fmt.Fprintf(o.Log, "host.calib_ms start %.3f end %.3f\n", calib0, calib1)
	vals["host.calib_ms"] = (calib0 + calib1) / 2
	defs := EndToEnd
	if o.Trace {
		defs = PerLayer
	}
	r.Metrics = map[string]Metric{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return Result{}, fmt.Errorf("workload %s measured no %s", o.Workload, d.Name)
		}
		r.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// calibrate times a fixed pure-Go loop in milliseconds: a reference for
// how fast the host runs at this moment, independent of the program.
func calibrate() float64 {
	start := time.Now()
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x>>40) * 1e-9
	}
	el := time.Since(start)
	if acc < 0 { // keep the loop from being optimised away
		fmt.Fprintln(io.Discard, acc)
	}
	return float64(el.Nanoseconds()) / 1e6
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// median returns the middle of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p90 returns the 90th percentile of xs, linearly interpolated between
// order statistics.
func p90(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := 0.9 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// campaignFigures are the deterministic figures of one campaign.
type campaignFigures struct {
	ev, memoHits int
	simHours     float64
	// logSpeedup sums ln(speedup) over the jobs that found a
	// configuration; found counts them.
	logSpeedup float64
	found      int
}

func (f *campaignFigures) add(rep harness.Report, totalSeconds float64) {
	f.ev += rep.Evaluated
	f.memoHits += rep.CacheHits
	f.simHours += totalSeconds / 3600
	if rep.Found {
		f.logSpeedup += math.Log(rep.Speedup)
		f.found++
	}
}

// deterministic sets ev_per_campaign, sim_analysis_h,
// found_speedup_geomean and search.memo_hits from the figures of one or
// more campaigns.
func deterministic(vals map[string]float64, figs []campaignFigures) {
	var ev, memo, h, logSU float64
	found := 0
	for _, f := range figs {
		ev += float64(f.ev)
		memo += float64(f.memoHits)
		h += f.simHours
		logSU += f.logSpeedup
		found += f.found
	}
	n := float64(len(figs))
	vals["ev_per_campaign"] = ev / n
	vals["search.memo_hits"] = memo / n
	vals["sim_analysis_h"] = h / n
	vals["found_speedup_geomean"] = 1
	if found > 0 {
		vals["found_speedup_geomean"] = math.Exp(logSU / float64(found))
	}
}

// deriveSeeds expands the workload seed into n campaign seeds
// (splitmix64), so that runs with neighbouring seeds share no inputs.
func deriveSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z >> 33)
	}
	return out
}

// spec builds the harness entry for one (benchmark, algorithm) job, with
// the fields a configuration file would carry.
func spec(b bench.Benchmark, algo string, threshold float64) harness.Spec {
	return harness.Spec{
		Name:     b.Name() + "-" + algo,
		BuildDir: b.Name(),
		Build:    []string{"make"},
		Clean:    []string{"make clean"},
		Bin:      b.Name(),
		Metric:   b.Metric(),
		Analysis: harness.AnalysisSpec{ID: "floatsmith", Name: "floatSmith", Algorithm: algo, Threshold: threshold},
	}
}

// reportChecks prints the check problems and clears Correct if there are any.
func reportChecks(o Options, r *Result, problems []string) {
	for _, p := range problems {
		fmt.Fprintln(o.Log, "CHECK FAILED:", p)
	}
	fmt.Fprintf(o.Log, "independent checks: %d problems\n", len(problems))
	r.Correct = len(problems) == 0
}

// f64Rounds runs, once per campaign round, the all-f64 probe
// (check.Checker.AllF64) of one benchmark the campaign searches, taking
// the benchmarks in turn. The probes use the canonical study seed, so
// which of them fail does not depend on the workload seed, and since
// every benchmark's probe fails at that seed, failed stays the same share
// of attempted in every run.
// A probe whose speedup is not exactly 1 counts as failed; one whose error
// is not exactly 0 is a check problem.
func f64Rounds(specs []harness.Spec, rounds int, log io.Writer) (attempted, failed int, problems []string, err error) {
	jobs, err := harness.JobsFromSpecs(specs, report.Seed)
	if err != nil {
		return 0, 0, nil, err
	}
	var benches []bench.Benchmark
	seen := map[string]bool{}
	for _, j := range jobs {
		if !seen[j.Benchmark.Name()] {
			seen[j.Benchmark.Name()] = true
			benches = append(benches, j.Benchmark)
		}
	}
	ck := check.New(report.Seed)
	logged := map[string]bool{}
	for i := 0; i < rounds; i++ {
		b := benches[i%len(benches)]
		attempted++
		su, err := ck.AllF64(b)
		switch {
		case err != nil:
			problems = append(problems, err.Error())
		case su != 1:
			failed++
			if !logged[b.Name()] {
				logged[b.Name()] = true
				fmt.Fprintf(log, "FAILED: %s: all-f64 configuration measures speedup %.17g against the reference, want exactly 1\n", b.Name(), su)
			}
		}
	}
	return attempted, failed, problems, nil
}
