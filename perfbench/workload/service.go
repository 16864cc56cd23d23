package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/harness"
	"repro/internal/store"

	"repro/perfbench/check"
	"repro/perfbench/layers"
)

// Service workload sizes: campaign seeds in the cold pass, closed-loop
// clients in the warm pass, and timed store recoveries.
const (
	serviceSeeds   = 6
	serviceClients = 2
	storeOpens     = 5
)

// kernelYAML renders the kernel-ladder3 campaign as one configuration
// document, an entry per (kernel, algorithm) job.
func kernelYAML(w inProcess) string {
	var b strings.Builder
	for _, s := range w.specs {
		fmt.Fprintf(&b, `%s:
  build_dir: '%s'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: '%s'
        threshold: %g
        precisions: '%s'
  output:
    option: '-o'
    name: 'outputFile.bin'
  metric: '%s'
  bin: '%s'
  copy: ['%s']
  args: '-n 1000'
`, s.Name, s.Bin, s.Analysis.Algorithm, s.Analysis.Threshold, w.precisions, s.Metric, s.Bin, s.Bin)
	}
	return b.String()
}

// daemon is one running mixpd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// client is the benchmark's single HTTP client process state: it counts
// every request it makes and every one that failed.
type client struct {
	attempted, failed atomic.Int64
}

func (c *client) get(d *daemon, path string) ([]byte, error) {
	return c.do(d, http.MethodGet, path, "", http.StatusOK)
}

// do sends one request and returns the body of a response with status
// want; any other outcome counts as a failed request.
func (c *client) do(d *daemon, method, path, body string, want int) ([]byte, error) {
	c.attempted.Add(1)
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		c.failed.Add(1)
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		c.failed.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if err != nil {
		c.failed.Add(1)
		return nil, err
	}
	return b, nil
}

// startDaemon launches mixpd over dir and waits until /healthz answers
// 200.
func startDaemon(o Options, c *client, dir string, logw io.Writer) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(o.Mixpd, "-addr", addr, "-store", dir, "-pprof",
		"-concurrent", strconv.Itoa(serviceClients), "-drain-seconds", "20")
	cmd.Stdout, cmd.Stderr = logw, logw
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		// The timeout bounds every request, the event stream included, so a
		// wedged daemon fails the run instead of hanging it.
		client: &http.Client{Timeout: 100 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}},
		exited: make(chan struct{}),
	}
	go func() { cmd.Wait(); close(d.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.attempted.Add(1)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("mixpd exited before becoming healthy")
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("mixpd not healthy after 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it if
// the drain takes longer than 30 seconds.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("mixpd did not exit within 30s of SIGTERM")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("mixpd: %v", d.cmd.ProcessState)
	}
	return nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// submitted is one campaign's round trip.
type submitted struct {
	id      string
	seed    int64
	wall    time.Duration
	results []byte
}

// runCampaign submits the campaign under seed, waits on its SSE stream
// for the done event, checks its final status, and fetches its results.
func (c *client) runCampaign(d *daemon, yaml string, seed int64, jobs int) (submitted, error) {
	start := time.Now()
	body, err := c.do(d, http.MethodPost, fmt.Sprintf("/campaigns?seed=%d&workers=1", seed), yaml, http.StatusCreated)
	if err != nil {
		return submitted{}, err
	}
	var st struct {
		ID        string `json:"id"`
		State     string `json:"state"`
		Jobs      int    `json:"jobs"`
		Completed int    `json:"completed"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return submitted{}, err
	}
	id := st.ID
	if err := c.awaitDone(d, id); err != nil {
		return submitted{}, err
	}
	res, err := c.get(d, "/campaigns/"+id+"/results")
	if err != nil {
		return submitted{}, err
	}
	wall := time.Since(start)
	if body, err = c.get(d, "/campaigns/"+id); err != nil {
		return submitted{}, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return submitted{}, err
	}
	if st.State != "done" || st.Jobs != jobs || st.Completed != jobs {
		return submitted{}, fmt.Errorf("campaign %s ended %s with %d of %d jobs", id, st.State, st.Completed, st.Jobs)
	}
	return submitted{id: id, seed: seed, wall: wall, results: res}, nil
}

// awaitDone reads the campaign's event stream until its done event.
func (c *client) awaitDone(d *daemon, id string) error {
	c.attempted.Add(1)
	resp, err := d.client.Get(d.base + "/campaigns/" + id + "/events")
	if err != nil {
		c.failed.Add(1)
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	c.failed.Add(1)
	return fmt.Errorf("campaign %s: event stream ended without done: %v", id, sc.Err())
}

// jobRecord is the part of a served result record the checks read.
type jobRecord struct {
	Job    int    `json:"job"`
	Entry  string `json:"entry"`
	Error  string `json:"error"`
	Report struct {
		Evaluated    int             `json:"evaluated"`
		SpentSeconds float64         `json:"spent_seconds"`
		CacheHits    int             `json:"cache_hits"`
		Speedup      json.RawMessage `json:"speedup"`
		Quality      json.RawMessage `json:"quality"`
		Found        bool            `json:"found"`
		TimedOut     bool            `json:"timed_out"`
		Config       string          `json:"config"`
	} `json:"report"`
	Attempts []struct {
		SpentSeconds   float64 `json:"spent_seconds"`
		BackoffSeconds float64 `json:"backoff_seconds"`
	} `json:"attempts"`
}

// jfloat decodes a float that may be served as a string ("NaN").
func jfloat(raw json.RawMessage) (float64, error) {
	var f float64
	if err := json.Unmarshal(raw, &f); err == nil {
		return f, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, err
	}
	return strconv.ParseFloat(s, 64)
}

// cacheDiag is the part of /cachediag the benchmark reads.
type cacheDiag struct {
	Jobs []struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"jobs"`
	Compile compile.Stats `json:"compile"`
	Store   store.Stats   `json:"store"`
}

func (c *client) cacheDiag(d *daemon, id string) (cacheDiag, error) {
	var cd cacheDiag
	b, err := c.get(d, "/campaigns/"+id+"/cachediag")
	if err == nil {
		err = json.Unmarshal(b, &cd)
	}
	return cd, err
}

// runtimeStats reads TotalAlloc and NumGC from mixpd's heap profile
// header.
func (c *client) runtimeStats(d *daemon) (alloc, numGC float64, err error) {
	b, err := c.get(d, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			alloc, err = strconv.ParseFloat(v, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			numGC, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, errors.New("heap profile lacks TotalAlloc or NumGC")
	}
	return alloc, numGC, nil
}

// routeStats reads from /metrics the submit route's latency sum and count
// and the total requests served on every route.
func (c *client) routeStats(d *daemon) (submitSum, submitCount, requests float64, err error) {
	b, err := c.get(d, "/metrics")
	if err != nil {
		return 0, 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, perr := strconv.ParseFloat(line[i+1:], 64)
		if perr != nil {
			continue
		}
		name := line[:i]
		switch {
		case strings.HasPrefix(name, "mixpd_http_requests_total{"):
			requests += v
		case name == `mixpd_http_request_seconds_sum{route="POST /campaigns"}`:
			submitSum = v
		case name == `mixpd_http_request_seconds_count{route="POST /campaigns"}`:
			submitCount = v
		}
	}
	return submitSum, submitCount, requests, nil
}

// pass runs campaigns from serviceClients closed-loop clients, cycling
// through seeds, until d has elapsed (at least one campaign each) or, when
// d is zero, until each seed has run once. next counts the campaigns
// submitted.
func (c *client) pass(dm *daemon, yaml string, seeds []int64, jobs int, d time.Duration, next *atomic.Int64) ([]submitted, error) {
	var (
		mu   sync.Mutex
		out  []submitted
		errs []error
		wg   sync.WaitGroup
	)
	start := time.Now()
	var taken atomic.Int64
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ran := 0; ; ran++ {
				if d > 0 && ran > 0 && time.Since(start) >= d {
					return
				}
				i := taken.Add(1) - 1
				if d == 0 && i >= int64(len(seeds)) {
					return
				}
				next.Add(1)
				s, err := c.runCampaign(dm, yaml, seeds[int(i)%len(seeds)], jobs)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					out = append(out, s)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func runService(o Options) (map[string]float64, Result, error) {
	w := kernelLadder3(o.Tiny)
	yaml := kernelYAML(w)
	jobs := len(w.specs)
	nSeeds, nSetups, nRestarts, nOpens := serviceSeeds, setups, restarts, storeOpens
	if o.Tiny {
		nSeeds, nSetups, nRestarts, nOpens = 1, 1, 1, 1
	}
	seeds := deriveSeeds(o.Seed, nSeeds)
	logf, err := os.Create(filepath.Join(o.WorkDir, "mixpd.log"))
	if err != nil {
		return nil, Result{}, err
	}
	defer logf.Close()
	vals := map[string]float64{}
	r := Result{Correct: true}
	var problems []string
	c := &client{}
	var next atomic.Int64 // campaigns submitted so far
	var dm *daemon
	defer func() {
		if dm != nil {
			dm.kill()
		}
	}()
	fail := func(err error) (map[string]float64, Result, error) {
		fmt.Fprintf(o.Log, "mixpd log: %s\n", filepath.Join(o.WorkDir, "mixpd.log"))
		return nil, r, err
	}

	// Set-up: launch mixpd over an empty state directory and run the cold
	// pass, which computes every campaign and writes the store and the
	// archives. Repeated over fresh directories; the last one is kept.
	cold := map[int64][]byte{}
	coldIDs := map[int64]string{}
	var setupTimes []float64
	var dir string
	var coldDiag cacheDiag
	for i := 0; i < nSetups; i++ {
		if dm != nil {
			if err := dm.stop(); err != nil {
				return fail(err)
			}
		}
		dir = filepath.Join(o.WorkDir, fmt.Sprintf("state%d", i))
		start := time.Now()
		if dm, err = startDaemon(o, c, dir, logf); err != nil {
			return fail(err)
		}
		subs, err := c.pass(dm, yaml, seeds, jobs, 0, &next)
		if err != nil {
			return fail(err)
		}
		setupTimes = append(setupTimes, seconds(time.Since(start)))
		for _, s := range subs {
			if prev, ok := cold[s.seed]; ok && !bytes.Equal(prev, s.results) {
				problems = append(problems, fmt.Sprintf("seed %d: cold results differ between set-ups", s.seed))
			}
			cold[s.seed] = s.results
			coldIDs[s.seed] = s.id
		}
		if coldDiag, err = c.cacheDiag(dm, subs[0].id); err != nil {
			return fail(err)
		}
	}
	vals["setup_s"] = median(setupTimes)

	// Restart cycles over the populated state: SIGTERM, relaunch, and
	// wait until /healthz answers and an archived campaign is served.
	archived := coldIDs[seeds[0]]
	var restartTimes []float64
	for i := 0; i < nRestarts; i++ {
		start := time.Now()
		if err := dm.stop(); err != nil {
			return fail(err)
		}
		stopped := time.Now()
		if dm, err = startDaemon(o, c, dir, logf); err != nil {
			return fail(err)
		}
		got, err := c.get(dm, "/campaigns/"+archived+"/results")
		if err != nil {
			return fail(err)
		}
		restartTimes = append(restartTimes, seconds(time.Since(start)))
		fmt.Fprintf(o.Log, "restart %d: stop %.1f ms, relaunch to served %.1f ms\n", i,
			float64(stopped.Sub(start).Microseconds())/1e3, float64(time.Since(stopped).Microseconds())/1e3)
		for _, s := range seeds {
			if s != seeds[0] {
				if got, err = c.get(dm, "/campaigns/"+coldIDs[s]+"/results"); err != nil {
					return fail(err)
				}
			}
			if !bytes.Equal(got, cold[s]) {
				problems = append(problems, fmt.Sprintf("restart %d: archived campaign %s serves different results", i, coldIDs[s]))
			}
		}
	}
	vals["restart_s"] = median(restartTimes)

	// Warm pass: the closed-loop clients re-submit the cold campaigns;
	// their results come from the durable tier.
	before, err := c.storeStats(dm)
	if err != nil {
		return fail(err)
	}
	total := time.Duration(o.Seconds * float64(time.Second))
	var warm []submitted
	if !o.Trace {
		start := time.Now()
		if warm, err = c.pass(dm, yaml, seeds, jobs, total, &next); err != nil {
			return fail(err)
		}
		elapsed := time.Since(start)
		walls, ev := submittedWalls(warm, cold)
		vals["campaign_s"] = median(walls)
		vals["campaign_p90_s"] = p90(walls)
		vals["evals_per_s"] = ev / seconds(elapsed)
		fmt.Fprintf(o.Log, "warm campaigns: %d (campaign_p90_s over %d samples)\n", len(warm), len(warm))
	} else {
		plain, err := c.pass(dm, yaml, seeds, jobs, total/2, &next)
		if err != nil {
			return fail(err)
		}
		alloc0, gc0, err := c.runtimeStats(dm)
		if err != nil {
			return fail(err)
		}
		sum0, cnt0, req0, err := c.routeStats(dm)
		if err != nil {
			return fail(err)
		}
		profSeconds := int(math.Max(1, math.Round((total / 2).Seconds())))
		var prof []byte
		var profErr error
		var pwg sync.WaitGroup
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			prof, profErr = c.get(dm, fmt.Sprintf("/debug/pprof/profile?seconds=%d", profSeconds))
		}()
		traced, err := c.pass(dm, yaml, seeds, jobs, time.Duration(profSeconds)*time.Second, &next)
		pwg.Wait()
		if err != nil {
			return fail(err)
		}
		if profErr != nil {
			return fail(profErr)
		}
		alloc1, gc1, err := c.runtimeStats(dm)
		if err != nil {
			return fail(err)
		}
		sum1, cnt1, req1, err := c.routeStats(dm)
		if err != nil {
			return fail(err)
		}
		p, err := layers.Decode(prof)
		if err != nil {
			return fail(err)
		}
		n := float64(len(traced))
		perCampaignMS := func(ns int64) float64 { return float64(ns) / 1e6 / n }
		a := layers.Attribute(p, "mixpd", []string{resolveFn, archiveFn})
		for _, l := range SelfLayers {
			vals[l+".self_ms"] = perCampaignMS(a.Self[l])
		}
		vals["harness.resolve_cum_ms"] = perCampaignMS(a.Cum[resolveFn])
		vals["engine.archive_cum_ms"] = perCampaignMS(a.Cum[archiveFn])
		last, err := c.cacheDiag(dm, traced[len(traced)-1].id)
		if err != nil {
			return fail(err)
		}
		var hits, misses uint64
		for _, j := range last.Jobs {
			hits += j.Hits
			misses += j.Misses
		}
		vals["runcache.hits"] = float64(hits)
		vals["runcache.misses"] = float64(misses)
		vals["compile.kernels"] = float64(last.Compile.Kernels)
		vals["mixpd.submit_ms"] = (sum1 - sum0) / (cnt1 - cnt0) * 1000
		vals["mixpd.requests"] = (req1 - req0) / n
		vals["alloc_mb"] = (alloc1 - alloc0) / (1 << 20) / n
		vals["gc.cycles"] = (gc1 - gc0) / n
		plainWalls, _ := submittedWalls(plain, cold)
		tracedWalls, _ := submittedWalls(traced, cold)
		vals["tracing.overhead_ms"] = (median(tracedWalls) - median(plainWalls)) * 1000
		warm = append(plain, traced...)
		fmt.Fprintf(o.Log, "traced run: %d untraced + %d traced warm campaigns, mixpd profile %.0f ms CPU\n",
			len(plain), len(traced), float64(a.Total)/1e6)
	}
	after, err := c.storeStats(dm)
	if err != nil {
		return fail(err)
	}
	for _, s := range warm {
		if !bytes.Equal(s.results, cold[s.seed]) {
			problems = append(problems, fmt.Sprintf("warm campaign %s (seed %d) differs from its cold results", s.id, s.seed))
		}
	}
	gets := after.Gets - before.Gets
	tierHits := after.GetHits - before.GetHits
	if gets == 0 || float64(tierHits) < 0.99*float64(gets) {
		problems = append(problems, fmt.Sprintf("warm pass store-tier hit rate %d/%d, want >= 99%%", tierHits, gets))
	}
	fmt.Fprintf(o.Log, "warm pass store-tier reads: %d of %d hit\n", tierHits, gets)
	vals["runcache.tier_hits"] = float64(tierHits)
	vals["runcache.tier_writes"] = float64(coldDiag.Store.Puts)
	vals["store.puts"] = float64(coldDiag.Store.Puts)
	vals["store.get_hits"] = float64(tierHits)
	vals["compile.misses"] = float64(coldDiag.Compile.Misses)
	vals["compile.hits"] = float64(coldDiag.Compile.Hits)
	vals["compile.stream_replays"] = float64(coldDiag.Compile.StreamReplays)
	rss, err := peakRSSMB(strconv.Itoa(dm.cmd.Process.Pid))
	if err != nil {
		return fail(err)
	}
	vals["peak_rss_mb"] = rss
	err = dm.stop()
	dm = nil
	if err != nil {
		return fail(err)
	}

	// Durable state on disk: archive size and store recovery time.
	if err := diskFigures(vals, dir, o.WorkDir, nOpens); err != nil {
		return fail(err)
	}

	// Independent checks of every seed's cold results.
	var figs []campaignFigures
	for _, s := range seeds {
		f, errs := checkServed(w, s, cold[s])
		figs = append(figs, f)
		problems = append(problems, errs...)
	}
	deterministic(vals, figs)
	campaigns := int(next.Load())
	r.Attempted = campaigns * jobs
	fmt.Fprintf(o.Log, "campaigns attempted %d, jobs attempted %d failed %d, HTTP requests attempted %d failed %d\n",
		campaigns, r.Attempted, r.Failed, c.attempted.Load(), c.failed.Load())
	pa, pf, pp, err := f64Rounds(w.specs, campaigns, o.Log)
	if err != nil {
		return fail(err)
	}
	r.Attempted += pa
	r.Failed += pf
	problems = append(problems, pp...)
	fmt.Fprintf(o.Log, "all-f64 probes attempted %d failed %d\n", pa, pf)
	reportChecks(o, &r, problems)
	return vals, r, nil
}

// diskFigures measures the durable state mixpd left in dir: the mean
// campaign archive size, and the median time store.Open takes to recover
// a fresh copy of the result store (copied n times, so every open reads
// an untouched directory), with the store's live size and segment count.
func diskFigures(vals map[string]float64, dir, workDir string, n int) error {
	archives, err := filepath.Glob(filepath.Join(dir, "campaigns", "*.json"))
	if err != nil || len(archives) == 0 {
		return fmt.Errorf("no campaign archives in %s: %v", dir, err)
	}
	var archiveBytes int64
	for _, a := range archives {
		fi, err := os.Stat(a)
		if err != nil {
			return err
		}
		archiveBytes += fi.Size()
	}
	vals["engine.archive_kb"] = float64(archiveBytes) / 1024 / float64(len(archives))
	var openTimes []float64
	for i := 0; i < n; i++ {
		cp := filepath.Join(workDir, fmt.Sprintf("results-copy%d", i))
		if err := copyDir(filepath.Join(dir, "results"), cp); err != nil {
			return err
		}
		start := time.Now()
		st, err := store.Open(cp, store.Options{Fingerprint: bench.DefaultStoreFingerprint()})
		if err != nil {
			return err
		}
		openTimes = append(openTimes, float64(time.Since(start).Nanoseconds())/1e6)
		ss := st.Stats()
		vals["store.live_mb"] = float64(ss.LiveBytes) / (1 << 20)
		vals["store.segments"] = float64(ss.Segments)
		if err := st.Close(); err != nil {
			return err
		}
	}
	vals["store.open_ms"] = median(openTimes)
	return nil
}

// submittedWalls returns the campaigns' wall times and their EV (from the
// cold results of their seed, which the warm results equal).
func submittedWalls(subs []submitted, cold map[int64][]byte) (walls []float64, ev float64) {
	evOf := map[int64]float64{}
	for _, s := range subs {
		walls = append(walls, seconds(s.wall))
		if _, ok := evOf[s.seed]; !ok {
			var recs []jobRecord
			json.Unmarshal(cold[s.seed], &recs)
			for _, rec := range recs {
				evOf[s.seed] += float64(rec.Report.Evaluated)
			}
		}
		ev += evOf[s.seed]
	}
	return walls, ev
}

// checkServed runs the independent checks over one campaign's served
// results and returns its deterministic figures.
func checkServed(w inProcess, seed int64, body []byte) (campaignFigures, []string) {
	var figs campaignFigures
	var recs []jobRecord
	if err := json.Unmarshal(body, &recs); err != nil {
		return figs, []string{fmt.Sprintf("seed %d: results: %v", seed, err)}
	}
	if len(recs) != len(w.specs) {
		return figs, []string{fmt.Sprintf("seed %d: %d results for %d jobs", seed, len(recs), len(w.specs))}
	}
	jobs, err := harness.JobsFromSpecs(w.specs, seed)
	if err != nil {
		return figs, []string{err.Error()}
	}
	ck := check.New(seed)
	var problems []string
	for i, rec := range recs {
		if rec.Error != "" || rec.Job != i || rec.Entry != w.specs[i].Name {
			problems = append(problems, fmt.Sprintf("seed %d job %d (%s): error %q", seed, rec.Job, rec.Entry, rec.Error))
			continue
		}
		su, err1 := jfloat(rec.Report.Speedup)
		q, err2 := jfloat(rec.Report.Quality)
		var cfg bench.Config
		var err3 error
		if rec.Report.Config != "" {
			cfg, err3 = bench.ParseKey(rec.Report.Config)
		}
		if err := errors.Join(err1, err2, err3); err != nil {
			problems = append(problems, fmt.Sprintf("seed %d job %d: %v", seed, i, err))
			continue
		}
		spent := rec.Report.SpentSeconds
		if len(rec.Attempts) > 0 {
			spent = 0
			for _, a := range rec.Attempts {
				spent += a.SpentSeconds + a.BackoffSeconds
			}
		}
		figs.add(harness.Report{Evaluated: rec.Report.Evaluated, CacheHits: rec.Report.CacheHits, Found: rec.Report.Found, Speedup: su}, spent)
		err := ck.Check(check.Job{
			Bench: jobs[i].Benchmark, Algorithm: w.specs[i].Analysis.Algorithm, Threshold: w.specs[i].Analysis.Threshold, Rungs: w.rungs,
			Evaluated: rec.Report.Evaluated, Found: rec.Report.Found, TimedOut: rec.Report.TimedOut,
			Speedup: su, Quality: q, Config: cfg,
		})
		if err != nil {
			problems = append(problems, fmt.Sprintf("seed %d: %v", seed, err))
		}
	}
	return figs, problems
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// storeStats reads the result store's counters from /healthz; unlike
// /cachediag it needs no live campaign.
func (c *client) storeStats(d *daemon) (store.Stats, error) {
	var h struct {
		Store store.Stats `json:"store"`
	}
	b, err := c.get(d, "/healthz")
	if err == nil {
		err = json.Unmarshal(b, &h)
	}
	return h.Store, err
}
