package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// readReports collects the report lines of a saved benchmark output (one
// or more runs, concatenated).
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"report":`) {
			continue
		}
		var r map[string]report
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r["report"])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no report lines", path)
	}
	return out, nil
}

// compare prints, per workload and metric, the median of two sets of runs
// and the change. It refuses to compare runs whose host fingerprints
// differ, or sets that ran a workload on different seeds: a bound is only
// meaningful against the same inputs on the same host.
func compare(beforePath, afterPath string) error {
	before, err := readReports(beforePath)
	if err != nil {
		return err
	}
	after, err := readReports(afterPath)
	if err != nil {
		return err
	}
	host := before[0].Host
	seeds := func(rs []report) map[string]string {
		m := make(map[string][]int64)
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r.Seed)
		}
		out := make(map[string]string)
		for w, s := range m {
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			out[w] = fmt.Sprint(s)
		}
		return out
	}
	for _, r := range append(append([]report(nil), before...), after...) {
		if r.Host != host {
			return fmt.Errorf("host fingerprints differ: %+v vs %+v", host, r.Host)
		}
	}
	bs, as := seeds(before), seeds(after)
	for w, s := range bs {
		if as[w] != s {
			return fmt.Errorf("%s ran on seeds %s before and %s after", w, s, as[w])
		}
	}
	values := func(rs []report, workload, name string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Printf("host: %+v\n", host)
	for _, w := range workloads {
		if bs[w] == "" {
			continue
		}
		fmt.Printf("%s (seeds %s)\n", w, bs[w])
		for _, list := range [][]metricDef{endToEnd, perLayer, extra} {
			for _, d := range list {
				b, a := values(before, w, d.Name), values(after, w, d.Name)
				if len(b) == 0 || len(a) == 0 {
					continue
				}
				mb, ma := median(b), median(a)
				change := "n/a"
				if mb != 0 {
					change = fmt.Sprintf("%+.1f%%", 100*(ma-mb)/mb)
				}
				fmt.Printf("  %-30s %14.4g %14.4g %8s %s (%s better)\n", d.Name, mb, ma, change, d.Unit, d.Better)
			}
		}
	}
	return nil
}
