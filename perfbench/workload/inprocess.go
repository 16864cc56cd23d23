package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/runcache"
	"repro/internal/suite"

	"repro/perfbench/check"
	"repro/perfbench/layers"
)

// Set-up and restart repetitions per run; their medians are reported.
const (
	setups   = 3
	restarts = 21
)

// Functions whose inclusive CPU time the traced run reports.
const (
	resolveFn = "repro/internal/harness.Spec.Resolve"
	archiveFn = "repro/internal/engine.(*Engine).archiveCampaign"
)

// inProcess describes one in-process workload.
type inProcess struct {
	specs      []harness.Spec
	precisions string
	rungs      int
}

// kernelLadder3 is the Table III kernel study - 10 kernels x CB CM DD HR
// HC GA at 1e-8 - on the f64,f32,bf16 ladder.
func kernelLadder3(tiny bool) inProcess {
	w := inProcess{precisions: "f64,f32,bf16", rungs: 3}
	ks, algos := suite.Kernels(), report.KernelAlgorithms
	if tiny {
		ks, algos = ks[:2], []string{"DD", "HC"}
	}
	for _, k := range ks {
		for _, a := range algos {
			w.specs = append(w.specs, spec(k, a, report.KernelThreshold))
		}
	}
	return w
}

// appSearch is the application search at 1e-6: HC on HPCCG, LavaMD and
// SRAD, plus DD, HR and GA over all seven applications.
func appSearch(tiny bool) (inProcess, error) {
	w := inProcess{rungs: 2}
	const th = 1e-6
	if tiny {
		b, err := suite.Lookup("hotspot")
		if err != nil {
			return w, err
		}
		w.specs = []harness.Spec{spec(b, "DD", th)}
		return w, nil
	}
	for _, name := range []string{"HPCCG", "LavaMD", "SRAD"} {
		b, err := suite.Lookup(name)
		if err != nil {
			return w, err
		}
		w.specs = append(w.specs, spec(b, "HC", th))
	}
	for _, a := range []string{"DD", "HR", "GA"} {
		for _, b := range suite.Apps() {
			w.specs = append(w.specs, spec(b, a, th))
		}
	}
	return w, nil
}

func lookupInProcess(name string, tiny bool) (inProcess, error) {
	if name == "kernel-ladder3" {
		return kernelLadder3(tiny), nil
	}
	return appSearch(tiny)
}

// campaign is one campaign's outcome. Its run cache is dropped with it,
// so memory does not grow with the number of campaigns a run completes.
type campaign struct {
	wall    time.Duration
	results []harness.JobResult
	// ev sums the jobs' EV; cache is the campaign's run-cache traffic.
	ev    int
	cache runcache.Stats
}

func (w inProcess) run(seed int64, comp *compile.Compiler) (campaign, error) {
	cache := bench.NewCache(nil)
	start := time.Now()
	res, err := harness.RunCampaign(w.specs, harness.CampaignOptions{
		Workers:    1,
		Seed:       seed,
		Cache:      cache,
		Compiler:   comp,
		Precisions: w.precisions,
	})
	c := campaign{wall: time.Since(start), results: res, cache: cache.Stats()}
	for _, jr := range res {
		c.ev += jr.Report.Evaluated
	}
	return c, err
}

// records encodes a campaign's results in the form the journal and mixpd
// serve, for byte comparison between campaigns.
func records(specs []harness.Spec, res []harness.JobResult) ([]byte, error) {
	var buf bytes.Buffer
	for i, jr := range res {
		b, err := json.Marshal(harness.ResultRecord(jr, specs[i].Name))
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// Probe is the child side of restart_s for the in-process workloads: a
// fresh process resolves the workload's entries and serves its first
// result, the reference run of the first job's benchmark.
func Probe(name string, seed int64, tiny bool) error {
	w, err := lookupInProcess(name, tiny)
	if err != nil {
		return err
	}
	seed = deriveSeeds(seed, 1)[0]
	jobs, err := harness.JobsFromSpecs(w.specs, seed)
	if err != nil {
		return err
	}
	ref := bench.NewRunner(seed).Reference(jobs[0].Benchmark)
	if len(ref.Output.Values) == 0 {
		return fmt.Errorf("%s: empty reference output", jobs[0].Benchmark.Name())
	}
	return nil
}

func runInProcess(o Options) (map[string]float64, Result, error) {
	w, err := lookupInProcess(o.Workload, o.Tiny)
	if err != nil {
		return nil, Result{}, err
	}
	seed := deriveSeeds(o.Seed, 1)[0]
	vals := map[string]float64{}
	r := Result{Correct: true}
	var problems []string
	campaigns := 0
	tally := func(c campaign) {
		campaigns++
		r.Attempted += len(c.results)
		for _, jr := range c.results {
			if jr.Err != nil {
				r.Failed++
				fmt.Fprintf(o.Log, "FAILED: %s: %v\n", w.specs[jr.Index].Name, jr.Err)
			}
		}
	}

	// Set-up: the first campaign of a fresh compile cache, which
	// specializes every kernel and records every input stream. Repeated
	// with a fresh compiler each time; the last one stays warm.
	nSetups, nRestarts := setups, restarts
	if o.Tiny {
		nSetups, nRestarts = 1, 1
	}
	var setupTimes []float64
	var comp *compile.Compiler
	var first campaign
	var firstCompile compile.Stats
	for i := 0; i < nSetups; i++ {
		comp = compile.New(nil)
		c, err := w.run(seed, comp)
		if err != nil {
			return nil, r, err
		}
		tally(c)
		setupTimes = append(setupTimes, seconds(c.wall))
		if i == 0 {
			first, firstCompile = c, comp.Stats()
		}
	}
	vals["setup_s"] = median(setupTimes)
	want, err := records(w.specs, first.results)
	if err != nil {
		return nil, r, err
	}

	// restart_s: a fresh process to its first served result. The probes
	// run between timed campaigns, spread evenly over the timed phase, so
	// their median covers the same stretch of host time as campaign_s.
	total := time.Duration(o.Seconds * float64(time.Second))
	var timedStart time.Time
	var restartTimes []float64
	probeUpTo := func(n int) error {
		for len(restartTimes) < n {
			args := []string{"--probe", o.Workload, "--seed", strconv.FormatInt(o.Seed, 10)}
			if o.Tiny {
				args = append(args, "--tiny")
			}
			cmd := exec.Command(o.Self, args...)
			cmd.Stderr = o.Log
			start := time.Now()
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("restart probe: %w", err)
			}
			restartTimes = append(restartTimes, seconds(time.Since(start)))
		}
		return nil
	}

	// Timed phase: whole campaigns on the warm compiler, each with a
	// fresh run cache. The traced run spends its second half under the
	// CPU profiler.
	phase := func(d time.Duration) ([]campaign, error) {
		var cs []campaign
		for start := time.Now(); len(cs) == 0 || time.Since(start) < d; {
			done := math.Min(1, float64(time.Since(timedStart))/float64(total))
			if err := probeUpTo(int(math.Ceil(done * float64(nRestarts)))); err != nil {
				return cs, err
			}
			c, err := w.run(seed, comp)
			if err != nil {
				return cs, err
			}
			tally(c)
			got, err := records(w.specs, c.results)
			if err != nil {
				return cs, err
			}
			if !bytes.Equal(got, want) {
				problems = append(problems, "a timed campaign's results differ from the set-up campaign's")
			}
			c.results = nil
			cs = append(cs, c)
		}
		return cs, nil
	}
	timedStart = time.Now()
	if !o.Trace {
		cs, err := phase(total)
		if err != nil {
			return nil, r, err
		}
		walls, ev, busy := wallsOf(cs)
		vals["campaign_s"] = median(walls)
		vals["campaign_p90_s"] = p90(walls)
		vals["evals_per_s"] = float64(ev) / busy
		fmt.Fprintf(o.Log, "timed campaigns: %d (campaign_p90_s over %d samples)\n", len(cs), len(cs))
	} else {
		plain, err := phase(total / 2)
		if err != nil {
			return nil, r, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, r, err
		}
		traced, err := phase(total / 2)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, r, err
		}
		runtime.ReadMemStats(&ms1)
		p, err := layers.Decode(prof.Bytes())
		if err != nil {
			return nil, r, err
		}
		n := float64(len(traced))
		perCampaignMS := func(ns int64) float64 { return float64(ns) / 1e6 / n }
		a := layers.Attribute(p, "", []string{resolveFn, archiveFn})
		for _, l := range SelfLayers {
			vals[l+".self_ms"] = perCampaignMS(a.Self[l])
		}
		vals["harness.resolve_cum_ms"] = perCampaignMS(a.Cum[resolveFn])
		vals["engine.archive_cum_ms"] = perCampaignMS(a.Cum[archiveFn])
		last := traced[len(traced)-1]
		cs := last.cache
		vals["runcache.hits"] = float64(cs.Hits)
		vals["runcache.misses"] = float64(cs.Misses)
		vals["runcache.tier_hits"] = float64(cs.TierHits)
		vals["runcache.tier_writes"] = float64(cs.TierWrites)
		vals["compile.misses"] = float64(firstCompile.Misses)
		vals["compile.hits"] = float64(firstCompile.Hits)
		vals["compile.stream_replays"] = float64(firstCompile.StreamReplays)
		vals["compile.kernels"] = float64(comp.Stats().Kernels)
		for _, k := range []string{"store.puts", "store.get_hits", "store.live_mb", "store.segments",
			"store.open_ms", "engine.archive_kb", "mixpd.submit_ms", "mixpd.requests"} {
			vals[k] = 0 // no store, engine or HTTP server in-process
		}
		vals["alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
		vals["gc.cycles"] = float64(ms1.NumGC-ms0.NumGC) / n
		plainWalls, _, _ := wallsOf(plain)
		tracedWalls, _, _ := wallsOf(traced)
		vals["tracing.overhead_ms"] = (median(tracedWalls) - median(plainWalls)) * 1000
		fmt.Fprintf(o.Log, "traced run: %d untraced + %d traced campaigns, profile %.0f ms CPU\n",
			len(plain), len(traced), float64(a.Total)/1e6)
	}

	if err := probeUpTo(nRestarts); err != nil {
		return nil, r, err
	}
	vals["restart_s"] = median(restartTimes)

	// Independent checks of the set-up campaign's reports.
	figs := campaignFigures{}
	ck := check.New(seed)
	jobs, err := harness.JobsFromSpecs(w.specs, seed)
	if err != nil {
		return nil, r, err
	}
	for i, jr := range first.results {
		figs.add(jr.Report, jr.TotalSeconds())
		rep := jr.Report
		err := ck.Check(check.Job{
			Bench: jobs[i].Benchmark, Algorithm: w.specs[i].Analysis.Algorithm, Threshold: w.specs[i].Analysis.Threshold, Rungs: w.rungs,
			Evaluated: rep.Evaluated, Found: rep.Found, TimedOut: rep.TimedOut,
			Speedup: rep.Speedup, Quality: rep.Quality, Config: rep.Config,
		})
		if err != nil {
			problems = append(problems, err.Error())
		}
	}
	deterministic(vals, []campaignFigures{figs})
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return nil, r, err
	}
	vals["peak_rss_mb"] = rss
	fmt.Fprintf(o.Log, "campaigns attempted %d, jobs attempted %d failed %d, HTTP requests attempted 0 failed 0\n",
		campaigns, r.Attempted, r.Failed)
	pa, pf, pp, err := f64Rounds(w.specs, campaigns, o.Log)
	if err != nil {
		return nil, r, err
	}
	r.Attempted += pa
	r.Failed += pf
	problems = append(problems, pp...)
	fmt.Fprintf(o.Log, "all-f64 probes attempted %d failed %d\n", pa, pf)
	reportChecks(o, &r, problems)
	return vals, r, nil
}

// wallsOf returns the campaigns' wall times in seconds, their total EV,
// and the sum of their wall times.
func wallsOf(cs []campaign) (walls []float64, ev int, busy float64) {
	for _, c := range cs {
		walls = append(walls, seconds(c.wall))
		busy += seconds(c.wall)
		ev += c.ev
	}
	return walls, ev, busy
}
