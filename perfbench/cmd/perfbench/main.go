// Command perfbench runs one workload of the repository's benchmark and
// prints its metrics as the last line of standard output:
//
//	perfbench --workload kernel-ladder3 --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run. perfbench/run.sh builds it and mixpd from
// source and runs it from the repository root; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/perfbench/workload"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: kernel-ladder3, app-search or service-store")
		seed    = flag.Int64("seed", 1, "workload seed")
		secs    = flag.Float64("seconds", 25, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		mixpd   = flag.String("mixpd", filepath.Join(".bench_build", "bin", "mixpd"), "mixpd binary for service-store")
		workDir = flag.String("workdir", filepath.Join(".bench_build", "work"), "parent of the run's scratch directory")
		tiny    = flag.Bool("tiny", false, "shrink the workload to a few jobs (self-test)")
		probe   = flag.String("probe", "", "internal: serve one first result of this workload and exit (restart_s)")
	)
	flag.Parse()
	if *probe != "" {
		if err := workload.Probe(*probe, *seed, *tiny); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench probe:", err)
			os.Exit(1)
		}
		return
	}
	if (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := workload.Run(workload.Options{
		Workload: *name,
		Seed:     *seed,
		Seconds:  *secs,
		Trace:    *trace == 1,
		Tiny:     *tiny,
		WorkDir:  filepath.Join(*workDir, strconv.Itoa(os.Getpid())),
		Mixpd:    *mixpd,
		Self:     self,
		Log:      os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
