// Command unibench regenerates the paper's tables and figures at full
// size on the simulation substrate and prints them in paper-style
// text form. EXPERIMENTS.md is written from its output.
//
// Usage:
//
//	unibench [-run all|fig1|fig2|fig3|fig4|tab1|fig8|fig9|fig10|fig11|fig12|tab3|fig13|fig14|ablation|trial]
//	         [-seed 1] [-quick]
//
// -quick shrinks workloads (fewer trials/files/users) for a fast
// pass; the default sizes match the paper's where feasible. The rows
// and their sizes are the experiment table (experiments.All followed
// by trial.Experiments); tab2, fig15 and fig16 select the rows that
// print them.
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"unidrive/internal/experiments"
	"unidrive/internal/trial"
)

func main() {
	runSel := flag.String("run", "all", "experiment to run (comma separated), or 'all'")
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "smaller workloads for a fast pass")
	flag.Parse()

	selected := map[string]bool{}
	for _, s := range strings.Split(*runSel, ",") {
		selected[strings.TrimSpace(strings.ToLower(s))] = true
	}
	want := func(e experiments.Experiment) bool {
		for _, n := range append([]string{"all", e.Name}, e.Aliases...) {
			if selected[n] {
				return true
			}
		}
		return false
	}

	for _, e := range append(experiments.All, trial.Experiments...) {
		if !want(e) {
			continue
		}
		size := e.Sizes.Paper
		if *quick {
			size = e.Sizes.Quick
		}
		start := time.Now()
		for _, t := range e.Tables(size, *seed) {
			fmt.Println(t.String())
		}
		fmt.Printf("-- %s finished in %v --\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}
