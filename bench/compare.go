package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultSet is one set of runs: what `go run ./bench -runs N -o file` writes
// and what -compare reads.
type resultSet struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values collects one end-to-end metric of one workload over a set's
// untraced runs, and the set's failed-op share on that workload.
func (s *resultSet) values(workload, metric string) (vals []float64, failedShare float64) {
	attempted, failed := 0, 0
	for _, r := range s.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted > 0 {
		failedShare = float64(failed) / float64(attempted)
	}
	return vals, failedShare
}

// worse reports whether value b is worse than a for the metric's direction.
func (m metricSpec) worse(a, b float64) bool {
	if m.Better == "higher" {
		return b < a
	}
	return b > a
}

// separated reports whether every run of b is worse (or, with better set,
// every run is better) than every run of a: the runs do not interleave.
func (m metricSpec) separated(a, b []float64, better bool) bool {
	for _, x := range a {
		for _, y := range b {
			if m.worse(x, y) == better || x == y {
				return false
			}
		}
	}
	return true
}

// verdict judges one workload × metric pairing of set B against set A: a
// median worse by more than the bound is a regression, unless the spread
// between runs is wider than the bound and the two sets' runs interleave,
// which resolves nothing either way.
func (m metricSpec) verdict(a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
		if m.Better == "higher" {
			delta = -delta
		}
	}
	noisy := spread(a) > m.Bound || spread(b) > m.Bound
	switch {
	case noisy && m.separated(a, b, true):
		return delta, "ok"
	case noisy && !(delta > m.Bound && m.separated(a, b, false)):
		return delta, "unresolved"
	case delta > m.Bound:
		return delta, "regressed"
	}
	return delta, "ok"
}

// compare prints, per workload × end-to-end metric, both medians, the signed
// change (positive = worse), the bound and the verdict. It reports whether
// any pairing regressed or any workload failed a larger share of its ops.
func compare(w io.Writer, a, b *resultSet) (regressed bool) {
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "worse by", "bound", "verdict")
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			va, fa := a.values(name, m.Name)
			vb, fb := b.values(name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7.2f  missing\n", name, m.Name, "-", "-", "-", m.Bound)
				regressed = true
				continue
			}
			delta, v := m.verdict(va, vb)
			if fb > fa {
				v = "regressed (more failed ops)"
			}
			if v != "ok" && v != "unresolved" {
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s (n=%d/%d, spread %.1f%%/%.1f%%)\n",
				name, m.Name, median(va), median(vb), 100*delta, 100*m.Bound, v, len(va), len(vb), 100*spread(va), 100*spread(vb))
		}
	}
	return regressed
}
