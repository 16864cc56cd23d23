// Package check verifies a campaign's job reports independently of the
// code that produced them.
//
// Every chosen configuration is executed again through bench.Runner, on
// the interpreted path by default (the campaigns under test run compiled
// kernels), and its error is recomputed with this package's own MAE,
// RMSE, MSE, R² and MCR, not internal/verify's. A report passes when:
//
//   - its EV does not exceed the search space, rungs^units;
//   - a found configuration's recomputed error equals the reported
//     quality and is within the threshold, and its recomputed speedup
//     equals the reported one;
//   - a job that found nothing reports speedup 1 and quality 0 (or NaN
//     for both when the search ran out of budget).
//
// AllF64 separately runs a benchmark's all-f64 configuration, whose error
// must be exactly 0 and whose speedup should be exactly 1.
package check

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"repro/internal/bench"
	"repro/internal/perfmodel"
	"repro/internal/search"
	"repro/internal/typedep"
)

// Job is the part of one job's report the checks read.
type Job struct {
	Bench     bench.Benchmark
	Algorithm string
	Threshold float64
	// Rungs is the length of the precision ladder searched.
	Rungs     int
	Evaluated int
	Found     bool
	TimedOut  bool
	Speedup   float64
	Quality   float64
	// Config is the chosen configuration (nil when nothing was found).
	Config bench.Config
}

// Checker re-executes configurations and caches each benchmark's
// reference run.
type Checker struct {
	// Run executes one configuration; a nil config is the reference.
	// New installs an interpreted bench.Runner; tests substitute a
	// faulty one.
	Run  func(b bench.Benchmark, cfg bench.Config) bench.Result
	refs map[string]bench.Result
}

// New returns a checker for workload seed seed.
func New(seed int64) *Checker {
	r := &bench.Runner{Machine: perfmodel.Default(), Runs: perfmodel.DefaultRuns, Seed: seed}
	return &Checker{Run: r.Run, refs: map[string]bench.Result{}}
}

func (c *Checker) reference(b bench.Benchmark) bench.Result {
	ref, ok := c.refs[b.Name()]
	if !ok {
		ref = c.Run(b, nil)
		c.refs[b.Name()] = ref
	}
	return ref
}

// Check verifies one job report.
func (c *Checker) Check(j Job) error {
	name := j.Bench.Name() + "/" + j.Algorithm
	strategy, err := search.ByName(j.Algorithm, 0)
	if err != nil {
		return err
	}
	// The search space counts the units the strategy assigns: clusters
	// for cluster-level strategies, variables for the variable-level
	// (hierarchical and compositional) ones, whose cluster-splitting
	// proposals fail to build but still count as evaluated.
	units := j.Bench.Graph().NumClusters()
	if strategy.Mode() == search.ByVariable {
		units = j.Bench.Graph().NumVars()
	}
	space := typedep.SearchSpaceSize(j.Rungs, units)
	if j.Evaluated < 1 || big.NewInt(int64(j.Evaluated)).Cmp(space) > 0 {
		return fmt.Errorf("%s: EV %d outside [1, %d^%d = %s]", name, j.Evaluated, j.Rungs, units, space)
	}
	ref := c.reference(j.Bench)
	if !j.Found {
		if j.Config != nil {
			return fmt.Errorf("%s: no configuration found but one reported", name)
		}
		if j.TimedOut && math.IsNaN(j.Speedup) && math.IsNaN(j.Quality) {
			return nil
		}
		if j.Speedup != 1 || j.Quality != 0 {
			return fmt.Errorf("%s: nothing found but speedup %v, quality %v reported", name, j.Speedup, j.Quality)
		}
		return nil
	}
	if len(j.Config) != j.Bench.Graph().NumVars() {
		return fmt.Errorf("%s: chosen configuration has %d entries for %d variables", name, len(j.Config), j.Bench.Graph().NumVars())
	}
	if j.Config.Demoted() == 0 {
		// The search settled on the all-f64 configuration, which the
		// evaluator scores as the reference itself; AllF64 runs it.
		if j.Speedup != 1 || j.Quality != 0 {
			return fmt.Errorf("%s: all-f64 choice reported speedup %v, quality %v", name, j.Speedup, j.Quality)
		}
		return nil
	}
	got := c.Run(j.Bench, j.Config)
	e, err := Error(j.Bench.Metric().String(), ref.Output.Values, got.Output.Values)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !agree(e, j.Quality) {
		return fmt.Errorf("%s: recomputed error %.17g, reported quality %.17g", name, e, j.Quality)
	}
	if !(e <= j.Threshold) {
		return fmt.Errorf("%s: chosen configuration's error %g exceeds threshold %g", name, e, j.Threshold)
	}
	if su := ref.Measured.Mean / got.Measured.Mean; !agree(su, j.Speedup) {
		return fmt.Errorf("%s: recomputed speedup %.17g, reported %.17g", name, su, j.Speedup)
	}
	return nil
}

// AllF64 runs the benchmark's all-f64 configuration against its
// reference. It returns an error unless the output error is exactly 0,
// and returns the measured speedup, which should be exactly 1: the
// configuration is the reference program.
func (c *Checker) AllF64(b bench.Benchmark) (float64, error) {
	ref := c.reference(b)
	got := c.Run(b, bench.NewConfig(b.Graph().NumVars()))
	e, err := Error(b.Metric().String(), ref.Output.Values, got.Output.Values)
	if err != nil {
		return 0, fmt.Errorf("%s: all-f64: %w", b.Name(), err)
	}
	if e != 0 {
		return 0, fmt.Errorf("%s: all-f64 configuration has error %g, want exactly 0", b.Name(), e)
	}
	return ref.Measured.Mean / got.Measured.Mean, nil
}

// agree reports agreement to within rounding of a differently ordered
// computation: 1e-9 relative, or both zero.
func agree(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// Error computes the named quality metric of got against ref. Output that
// is non-finite where the reference is finite has error NaN.
func Error(metric string, ref, got []float64) (float64, error) {
	if len(ref) != len(got) || len(ref) == 0 {
		return 0, fmt.Errorf("output length %d against reference length %d", len(got), len(ref))
	}
	for i := range got {
		if isFinite(ref[i]) && !isFinite(got[i]) {
			return math.NaN(), nil
		}
	}
	n := float64(len(ref))
	switch metric {
	case "MAE":
		s := 0.0
		for i := range ref {
			s += math.Abs(ref[i] - got[i])
		}
		return s / n, nil
	case "MSE", "RMSE":
		s := 0.0
		for i := range ref {
			s += (ref[i] - got[i]) * (ref[i] - got[i])
		}
		if metric == "RMSE" {
			return math.Sqrt(s / n), nil
		}
		return s / n, nil
	case "R2":
		// 1 - R² = residual sum of squares over total sum of squares.
		mean := 0.0
		for _, v := range ref {
			mean += v
		}
		mean /= n
		res, tot := 0.0, 0.0
		for i := range ref {
			res += (ref[i] - got[i]) * (ref[i] - got[i])
			tot += (ref[i] - mean) * (ref[i] - mean)
		}
		switch {
		case tot != 0:
			return res / tot, nil
		case res == 0:
			return 0, nil
		}
		return math.Inf(1), nil
	case "MCR":
		// Each value is a class label rounded to the nearest integer.
		wrong := 0
		for i := range ref {
			a, b := math.Round(ref[i]), math.Round(got[i])
			if a != b || math.IsNaN(a) != math.IsNaN(b) {
				wrong++
			}
		}
		return float64(wrong) / n, nil
	}
	return 0, errors.New("unknown metric " + metric)
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
