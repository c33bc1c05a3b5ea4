// Command slogate is the robustness release wall: it replays the fault
// scenarios under scenarios/ — each a declarative YAML description of a
// world shape, a fault schedule and what must hold under it — and exits
// non-zero when any verdict breaches.
//
//	slogate                          # replay scenarios/, write artifacts/slo/
//	slogate -only kill -runs 5       # subset, more seeded injected runs
//	slogate -list                    # show scenarios and their gates
//	slogate -check artifacts/slo/analysis.json   # validate an artifact
//
// Every scenario runs once fault-free (the reference) and then -runs
// times under its seeded schedule, on one synthetic world. Three kinds of
// verdict, each evaluated on every injected run: the outcome is the one the
// scenario expects; when that is success, the volume is the reference's,
// byte for byte; every gated event count is inside its bounds. Nothing is
// timed. The analysis lands in -out as analysis.json (schema
// distfdk-slo/2, machine-checked by -check in CI) and analysis.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"distfdk/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("slogate: ")
	dir := flag.String("scenarios", "scenarios", "directory of scenario *.yaml files")
	out := flag.String("out", filepath.Join("artifacts", "slo"), "directory for analysis.json / analysis.md")
	runs := flag.Int("runs", 0, "override every scenario's injected-run count (0 keeps each file's setting)")
	only := flag.String("only", "", "replay only scenarios whose name contains this substring")
	list := flag.Bool("list", false, "list scenarios and their gates, then exit")
	check := flag.String("check", "", "validate an analysis.json artifact and exit")
	flag.Parse()

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			log.Fatal(err)
		}
		a, err := scenario.ValidateAnalysisJSON(data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: valid %s artifact, %d scenarios, pass=%v\n",
			*check, a.Schema, len(a.Scenarios), a.Pass)
		if !a.Pass {
			os.Exit(1)
		}
		return
	}

	cfgs, err := scenario.LoadDir(*dir)
	if err != nil {
		log.Fatal(err)
	}
	if *only != "" {
		kept := cfgs[:0]
		for _, c := range cfgs {
			if strings.Contains(c.Name, *only) {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			log.Fatalf("no scenario name contains %q", *only)
		}
		cfgs = kept
	}

	if *list {
		for _, c := range cfgs {
			fmt.Printf("%-24s %s\n", c.Name, c.Description)
			fmt.Printf("%-24s   seed %d · %d runs · expect %s\n", "", c.Seed, c.Runs, c.Expect)
			for _, g := range c.Gates {
				fmt.Printf("%-24s   gate %s — %s\n", "", g.Metric, scenario.MetricHelp(g.Metric))
			}
		}
		return
	}

	var results []scenario.ScenarioResult
	for _, cfg := range cfgs {
		if *runs > 0 {
			cfg.Runs = *runs
		}
		res, err := scenario.Execute(cfg, log.Printf)
		if err != nil {
			// The world itself failed to build: record the failure as a
			// failing scenario so the artifact tells the story, and keep
			// gating the rest.
			log.Printf("%s: %v", cfg.Name, err)
			res = &scenario.ScenarioResult{Name: cfg.Name, Description: cfg.Description,
				Seed: cfg.Seed, Runs: cfg.Runs, Expect: cfg.Expect, Error: err.Error()}
		}
		verdict := "pass"
		if !res.Pass {
			verdict = "FAIL"
		}
		log.Printf("%s: %s", cfg.Name, verdict)
		results = append(results, *res)
	}

	a := scenario.NewAnalysis(results, time.Now().UTC().Format(time.RFC3339))
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	data, err := a.JSON()
	if err != nil {
		log.Fatal(err)
	}
	jsonPath := filepath.Join(*out, "analysis.json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		log.Fatal(err)
	}
	mdPath := filepath.Join(*out, "analysis.md")
	if err := os.WriteFile(mdPath, []byte(a.Markdown()), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s and %s", jsonPath, mdPath)
	if !a.Pass {
		log.Print("SLO gate: FAIL")
		os.Exit(1)
	}
	log.Print("SLO gate: PASS")
}
