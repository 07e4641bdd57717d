package main

import (
	"fmt"
	"io"
)

// compareCmd compares two report files written with --out, metric by
// metric. Reports from hosts with different fingerprints are not
// comparable: the comparison is then printed as informational and
// passes nothing. With equal fingerprints, a metric that worsened by
// more than its bound (BENCHMARK.json) fails the comparison.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	olds, err := readReports(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	news, err := readReports(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	verdict := compareReports(olds, news, bounds, stdout)
	fmt.Fprintln(stdout, verdict)
	if verdict == verdictRegressed {
		return 1
	}
	return 0
}

const (
	verdictPass          = "PASS"
	verdictRegressed     = "REGRESSED"
	verdictInformational = "INFORMATIONAL: host fingerprints differ, comparison not gated"
)

// compareReports prints old and new values of every end-to-end metric
// of every workload present in both and returns the verdict.
func compareReports(olds, news []*report, bounds map[string]float64, w io.Writer) string {
	gated, regressed := true, false
	for _, n := range news {
		var o *report
		for _, c := range olds {
			if c.Workload == n.Workload && c.Trace == n.Trace {
				o = c
			}
		}
		if o == nil {
			continue
		}
		if ok, why := o.Fingerprint.comparable(n.Fingerprint); !ok {
			gated = false
			fmt.Fprintf(w, "%s: %s\n", n.Workload, why)
		}
		for _, s := range endToEnd {
			ov, nv := o.Metrics[s.name].Value, n.Metrics[s.name].Value
			worse := (nv - ov) / ov
			if s.better == "higher" {
				worse = (ov - nv) / ov
			}
			mark := ""
			if b, ok := bounds[s.name]; ok && ov != 0 && worse > b {
				mark = fmt.Sprintf("  worse by %.1f%% > bound %.0f%%", 100*worse, 100*b)
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-18s %12.6g -> %12.6g %s%s\n", n.Workload, s.name, ov, nv, s.unit, mark)
		}
	}
	switch {
	case !gated:
		return verdictInformational
	case regressed:
		return verdictRegressed
	}
	return verdictPass
}
