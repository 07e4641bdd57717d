package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program
// in step: the same workloads, and the same metric names, units and
// directions in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricSpec, names, units, better []string) {
		if len(names) != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(names), len(got))
		}
		for i, s := range got {
			if names[i] != s.name || units[i] != s.unit || better[i] != s.better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, program %s %s %s",
					kind, i, names[i], units[i], better[i], s.name, s.unit, s.better)
			}
		}
	}
	var n, u, bt []string
	for _, m := range b.EndToEnd {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u, bt)
	n, u, bt = nil, nil, nil
	for _, m := range b.PerLayer {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("per_layer", perLayer, n, u, bt)
}

func TestCompareAcrossFingerprintsIsInformational(t *testing.T) {
	host := fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", MemBWGBs: 10, FFTGflops: 3}
	mk := func(fp fingerprint, p50 float64) []*report {
		r := &report{Workload: "w", Fingerprint: fp, Metrics: map[string]metric{}}
		for _, s := range endToEnd {
			r.Metrics[s.name] = metric{Value: 1, Unit: s.unit}
		}
		r.Metrics["latency_ms.p50"] = metric{Value: p50, Unit: "ms"}
		return []*report{r}
	}
	bounds := map[string]float64{"latency_ms.p50": 0.1}
	other := host
	other.CPU = "y"
	for _, tc := range []struct {
		name      string
		old, new_ []*report
		want      string
	}{
		{"same host, within bound", mk(host, 10), mk(host, 10.5), verdictPass},
		{"same host, regressed", mk(host, 10), mk(host, 12), verdictRegressed},
		{"other host, regressed", mk(host, 10), mk(other, 12), verdictInformational},
		{"other host, faster", mk(host, 10), mk(other, 5), verdictInformational},
	} {
		var out bytes.Buffer
		if got := compareReports(tc.old, tc.new_, bounds, &out); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
		if tc.want == verdictInformational && !strings.Contains(out.String(), "cpu model differs") {
			t.Errorf("%s: output does not say why: %s", tc.name, out.String())
		}
	}
}
