// Command experiments runs the paper-reproduction experiment harness: one
// experiment per figure, theorem, algorithm and complexity claim of Rau,
// Fortes and Siegel's IADM state-model paper, as indexed in DESIGN.md.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E8    # run one experiment (comma-separate for more)
//	experiments -list      # list experiment ids and titles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"iadm/internal/buildinfo"
	"iadm/internal/experiments"
	"iadm/internal/profiling"
)

func main() {
	runID := flag.String("run", "", "comma-separated experiment ids to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	intra := flag.Int("intra", 0, "wormhole: worker goroutines inside each run (0/1 = sequential; reports are bit-identical for every value; packet runs are always sequential)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("experiments"))
		return
	}
	experiments.IntraWorkers = *intra
	err := profiling.WithProfiles(*cpuprofile, *memprofile, func() error {
		return run(os.Stdout, *runID, *list)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, runID string, list bool) error {
	if list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(w, "%-4s %s\n", id, experiments.Title(id))
		}
		return nil
	}
	ids := experiments.IDs()
	if runID != "" {
		ids = strings.Split(runID, ",")
	}
	var firstErr error
	for _, id := range ids {
		id = strings.TrimSpace(id)
		res, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintf(w, "%s: FAILED: %v\n", id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fmt.Fprintf(w, "==== %s — %s ====\n%s\n", res.ID, res.Title, res.Body)
	}
	return firstErr
}
