package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// manifest is BENCHMARK.json: the declared workloads and metrics, and for
// each end-to-end metric the share of the parent's median by which it may
// get worse.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one (workload, metric) pair from the runs of both sides.
// A median worse by more than the bound is "regressed"; when either side's
// interquartile spread is itself wider than the bound the medians cannot
// tell, and the pair is "unresolved" unless every run of the change beats
// every run of the parent.
func verdict(parent, change []float64, lowerIsBetter bool, bound float64) (deltaPct float64, v string) {
	pm, cm := median(parent), median(change)
	deltaPct = (cm - pm) / pm * 100
	worse := deltaPct / 100
	if !lowerIsBetter {
		worse = -worse
	}
	if max(spread(parent), spread(change)) > bound {
		for _, c := range change {
			for _, p := range parent {
				if (lowerIsBetter && c >= p) || (!lowerIsBetter && c <= p) {
					return deltaPct, "unresolved"
				}
			}
		}
		return deltaPct, "ok"
	}
	if worse > bound {
		return deltaPct, "regressed"
	}
	return deltaPct, "ok"
}

// spread is the interquartile range as a share of the median; 0 for a
// single run, which has no spread to show.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// all-workloads documents and reports whether any row regressed.
func compareFiles(w io.Writer, parentPath, changePath, manifestPath string) (regressed bool, err error) {
	var mf manifest
	var parent, change document
	for path, v := range map[string]any{manifestPath: &mf, parentPath: &parent, changePath: &change} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent\tchange\tdelta %\tbound %\tverdict")
	for _, wl := range mf.Workloads {
		p, c := parent.Workloads[wl.Name], change.Workloads[wl.Name]
		if p == nil || c == nil {
			return false, fmt.Errorf("workload %s is missing from one side", wl.Name)
		}
		for _, mm := range mf.EndToEnd {
			pv, cv := values(p.Runs, mm.Name), values(c.Runs, mm.Name)
			if len(pv) == 0 || len(cv) == 0 {
				return false, fmt.Errorf("%s/%s is missing from one side", wl.Name, mm.Name)
			}
			delta, v := verdict(pv, cv, mm.Better == "lower", mm.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.2f\t%.0f\t%s\n",
				wl.Name, mm.Name, mm.Unit, median(pv), median(cv), delta, mm.Bound*100, v)
		}
	}
	return regressed, tw.Flush()
}

func values(runs []result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok {
			out = append(out, mv.Value)
		}
	}
	return out
}
