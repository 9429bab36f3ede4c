// Command lightne-bench regenerates the paper's evaluation tables and
// figures (§5) on the synthetic dataset replicas. Each experiment prints a
// text table mirroring the corresponding paper artifact; EXPERIMENTS.md
// records the paper-vs-measured comparison.
//
// Usage:
//
//	lightne-bench                 # run everything (e1-e10 paper artifacts,
//	                              # e11-e14 extension experiments)
//	lightne-bench -exp e4,e5      # only Table 4 and Figure 2
//	lightne-bench -quick          # ~10x cheaper smoke run
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lightne/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment IDs (e1..e14) or 'all'")
		quick = flag.Bool("quick", false, "shrink sweeps and sample budgets for a fast smoke run")
		seed  = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	ids := experiments.Order()
	if *exp != "all" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.ToLower(strings.TrimSpace(id)))
		}
	}
	runners := experiments.All()
	opt := experiments.Options{Seed: *seed, Quick: *quick}
	start := time.Now()
	failed := 0
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "lightne-bench: unknown experiment %q (valid: %s)\n",
				id, strings.Join(experiments.Order(), ", "))
			failed++
			continue
		}
		rep, err := run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lightne-bench: %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(rep.String())
	}
	fmt.Fprintf(os.Stderr, "lightne-bench: %d experiment(s) in %s\n", len(ids)-failed, time.Since(start).Round(time.Second))
	if failed > 0 {
		os.Exit(1)
	}
}
