// Package selftest is a quick self-test of the benchmark: every workload
// at tiny sizes must emit every metric BENCHMARK.json names, with its
// unit, and the correctness checker must reject corrupted output and a
// wrong reported quality.
//
//	cd perfbench && go test ./selftest
package selftest

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/suite"

	"repro/perfbench/check"
	"repro/perfbench/workload"
)

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogueMatchesBenchmarkFile keeps the metric tables in the code
// and in BENCHMARK.json identical.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	same := func(kind string, file []metricDef, code []workload.Def) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].Name || file[i].Unit != code[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %v, code %v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, workload.EndToEnd)
	same("per_layer", f.PerLayer, workload.PerLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workload.Names, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, workload.Names)
	}
}

// TestTinyRunsEmitEveryMetric runs every workload, untraced and traced,
// at tiny sizes through the real command.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	for _, pkg := range []string{"repro/perfbench/cmd/perfbench", "repro/cmd/mixpd"} {
		out, err := exec.Command("go", "build", "-o", dir, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	for _, w := range f.Workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(filepath.Join(dir, "perfbench"), "--workload", w.Name, "--seed", "5",
				"--seconds", "1", "--trace", trace, "--tiny",
				"--mixpd", filepath.Join(dir, "mixpd"), "--workdir", filepath.Join(dir, "work"))
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %s: %v\n%s", w.Name, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res workload.Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, attempted %d\n%s", w.Name, trace, res.Correct, res.Attempted, out)
			}
			want := f.EndToEnd
			if trace == "1" {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// foundJob runs one small search and returns a job report that demoted
// some variables, with its benchmark and seed.
func foundJob(t *testing.T) (check.Job, int64) {
	t.Helper()
	b, err := suite.Lookup("hydro-1d")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11
	spec := harness.Spec{Name: "hydro", Bin: b.Name(), Metric: b.Metric(),
		Analysis: harness.AnalysisSpec{ID: "floatsmith", Name: "floatSmith", Algorithm: "DD", Threshold: 1e-4}}
	res, err := harness.RunCampaign([]harness.Spec{spec}, harness.CampaignOptions{Workers: 1, Seed: seed})
	if err != nil || res[0].Err != nil {
		t.Fatalf("campaign: %v %v", err, res[0].Err)
	}
	rep := res[0].Report
	if !rep.Found || rep.Config.Demoted() == 0 {
		t.Fatalf("search demoted nothing: %+v", rep)
	}
	return check.Job{Bench: b, Algorithm: "DD", Threshold: 1e-4, Rungs: 2, Evaluated: rep.Evaluated,
		Found: true, Speedup: rep.Speedup, Quality: rep.Quality, Config: rep.Config}, seed
}

func TestCheckerAcceptsGenuineReport(t *testing.T) {
	j, seed := foundJob(t)
	if err := check.New(seed).Check(j); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsCorruptedOutput(t *testing.T) {
	j, seed := foundJob(t)
	c := check.New(seed)
	run := c.Run
	c.Run = func(b bench.Benchmark, cfg bench.Config) bench.Result {
		r := run(b, cfg)
		if cfg != nil {
			vals := append([]float64(nil), r.Output.Values...)
			vals[len(vals)/2] += 1e-3
			r.Output.Values = vals
		}
		return r
	}
	if err := c.Check(j); err == nil {
		t.Fatal("checker accepted a corrupted output")
	}
}

func TestCheckerRejectsWrongQuality(t *testing.T) {
	j, seed := foundJob(t)
	j.Quality = j.Quality*2 + 1e-12
	if err := check.New(seed).Check(j); err == nil {
		t.Fatal("checker accepted a wrong reported quality")
	}
}

func TestCheckerRejectsEVBeyondSearchSpace(t *testing.T) {
	j, seed := foundJob(t)
	j.Evaluated = 1 << 40
	if err := check.New(seed).Check(j); err == nil {
		t.Fatal("checker accepted an EV beyond the search space")
	}
}

func TestErrorMetrics(t *testing.T) {
	ref := []float64{1, 2, 3, 4}
	got := []float64{1, 2, 3, 6}
	for metric, want := range map[string]float64{"MAE": 0.5, "MSE": 1, "RMSE": 1, "R2": 4.0 / 5, "MCR": 0.25} {
		if e, err := check.Error(metric, ref, got); err != nil || e != want {
			t.Errorf("%s = %v, %v; want %v", metric, e, err, want)
		}
	}
}
