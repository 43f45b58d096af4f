package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareReports diffs two reports workload by workload. It fails when the
// simulated totals differ at a seed both reports ran, naming the workload,
// seed and field. Each end-to-end metric prints as old median [q1, q3] →
// new median and is marked when the median moved by more than the old
// q3 − q1; a timing never fails the compare.
func compareReports(w io.Writer, oldPath, newPath string) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	var shared []string
	for _, name := range sortedKeys(newRep.Workloads) {
		if _, ok := oldRep.Workloads[name]; ok {
			shared = append(shared, name)
		}
	}
	if len(shared) == 0 {
		return fmt.Errorf("%s and %s share no workload", oldPath, newPath)
	}

	diffs, pairs := 0, 0
	for _, name := range shared {
		o, n := oldRep.Workloads[name], newRep.Workloads[name]
		for _, seed := range sortedKeys(n.Sim) {
			ot, ok := o.Sim[seed]
			if !ok {
				continue
			}
			pairs++
			nt := n.Sim[seed]
			fields := sortedKeys(ot)
			for _, f := range sortedKeys(nt) {
				if _, ok := ot[f]; !ok {
					fields = append(fields, f)
				}
			}
			for _, f := range fields {
				if ot[f] != nt[f] {
					diffs++
					fmt.Fprintf(w, "SIM DIFF  %s seed %s: %s %q → %q\n", name, seed, f, ot[f], nt[f])
				}
			}
		}
		for _, m := range sortedKeys(o.Metrics) {
			om := o.Metrics[m]
			nm, ok := n.Metrics[m]
			if !ok {
				continue
			}
			mark := ""
			if math.Abs(nm.Median-om.Median) > om.Q3-om.Q1 {
				mark = "  * moved beyond the old IQR"
			}
			fmt.Fprintf(w, "%-12s %-14s %12.5g [%.5g, %.5g] → %.5g %s%s\n",
				name, m, om.Median, om.Q1, om.Q3, nm.Median, om.Unit, mark)
		}
	}
	if diffs > 0 {
		return fmt.Errorf("%d simulated totals differ between %s and %s", diffs, oldPath, newPath)
	}
	fmt.Fprintf(w, "compare: simulated totals equal at %d shared (workload, seed) pairs\n", pairs)
	return nil
}

func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if rep.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, schema)
	}
	return &rep, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
