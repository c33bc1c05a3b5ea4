// Command fdkbench regenerates the tables and figures of the paper's
// evaluation section. Each experiment id matches a paper artifact:
//
//	fdkbench -exp table5        # out-of-core single-device evaluation
//	fdkbench -exp fig13         # strong scaling to 1024 simulated GPUs
//	fdkbench -exp all -out out/ # everything, with images under out/
//	fdkbench -pairs dir/        # the verdicts of a make bench-pairs run
//
// Laptop-scale experiments execute the full reconstruction code path on
// synthetic twins of the paper's datasets; paper-scale experiments run the
// calibrated discrete-event simulator with the published ABCI parameters.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"distfdk/internal/experiments"
	"distfdk/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(experiments.Names(), ", ")+", or all")
	out := flag.String("out", "bench_out", "directory for image/timeline artifacts")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "CPU parallelism")
	list := flag.Bool("list", false, "list experiment ids and exit")
	checkTrace := flag.String("check-trace", "", "validate a Chrome trace artifact (exit non-zero on violation) and exit")
	requireFlows := flag.Bool("require-matched-flows", false, "with -check-trace, additionally require flow events to be present and fully matched (every recv arrow has its send)")
	checkMetrics := flag.String("check-metrics", "", "validate a metrics JSON artifact (exit non-zero on violation) and exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address during the benchmarks")
	pairs := flag.String("pairs", "", "summarise a make bench-pairs directory (base.jsonl, head.jsonl) with a verdict per metric, reading BENCHMARK.json in the working directory, and exit")
	flag.Parse()

	if *pairs != "" {
		if err := pairsTable(os.Stdout, *pairs, "BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		return
	}

	if *pprofAddr != "" {
		ln, err := servePprof(*pprofAddr)
		if err != nil {
			log.Fatalf("fdkbench: %v", err)
		}
		defer ln.Close()
	}
	if *checkTrace != "" || *checkMetrics != "" {
		checkArtifacts(*checkTrace, *checkMetrics, *requireFlows)
		return
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	tables, err := experiments.Run(*exp, experiments.RunOptions{OutDir: *out, Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdkbench:", err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
}

// checkArtifacts validates telemetry artifacts a run produced — the
// `make trace-smoke` gate. Exits non-zero with the violation on stderr so
// CI fails loudly on a malformed trace.
func checkArtifacts(tracePath, metricsPath string, requireFlows bool) {
	if tracePath != "" {
		data, err := os.ReadFile(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		sum, err := telemetry.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		fmt.Printf("trace %s: %d duration events across %d processes, %d/%d flow arrows matched\n",
			tracePath, sum.Events, len(sum.Pids), sum.FlowEnds, sum.FlowBegins)
		if requireFlows {
			if sum.FlowBegins == 0 {
				fmt.Fprintf(os.Stderr, "fdkbench: trace %s carries no flow events\n", tracePath)
				os.Exit(1)
			}
			if n := sum.Unmatched(); n > 0 {
				fmt.Fprintf(os.Stderr, "fdkbench: trace %s has %d unmatched flow begins\n", tracePath, n)
				os.Exit(1)
			}
		}
	}
	if metricsPath != "" {
		data, err := os.ReadFile(metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		rep, err := telemetry.ValidateMetricsJSON(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics %s: %d rank sections, %d skewed counters\n",
			metricsPath, len(rep.Ranks), len(rep.Cluster))
		if cp := rep.CriticalPath; cp != nil {
			fmt.Printf("metrics %s: critical path %v (comm %.1f%%, wait %.1f%%)\n",
				metricsPath, time.Duration(cp.MakespanNs).Round(time.Microsecond),
				100*cp.CommFraction, 100*cp.WaitFraction)
		}
	}
}
