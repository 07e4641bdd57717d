// Command perfbench is the repository's benchmark. It runs one workload
// (or all of them, in one process) against the soifft library and its
// layers, checks every output bit for bit against a reference spectrum,
// and prints every metric by name, unit and sample count. The last line
// of standard output is one JSON object: the end-to-end metrics of an
// untraced run, or, with --trace 1, the per-layer metrics of a traced
// run in which the benchmark times calls into each layer from outside.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload node-1Mi --seed 1 --seconds 10 --trace 0
//
// Workloads, metrics and the bounds a change may not exceed are listed
// in BENCHMARK.json. "perfbench compare OLD NEW" compares two reports
// written with --out and treats reports from different host
// fingerprints as informational only.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(rc runConfig, fp fingerprint) (*report, error)
}

var workloads = []workload{
	{"node-1Mi", func(rc runConfig, fp fingerprint) (*report, error) { return runNode(rc, fp, 1<<20) }},
	{"inproc-1Mi", func(rc runConfig, fp fingerprint) (*report, error) { return runInproc(rc, fp, 1<<20, 2) }},
	{"tcp-coded-64Ki", func(rc runConfig, fp fingerprint) (*report, error) { return runTCP(rc, fp, 1<<16, 2, 1) }},
	{"serve-mix", func(rc runConfig, fp fingerprint) (*report, error) { return runServe(rc, fp, defaultMix()) }},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measuring window")
	traceLevel := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	out := fs.String("out", "", "also write the full report (fingerprint, every metric with its sample count) to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceLevel != 0 && *traceLevel != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q; want all or one of:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}

	fp, err := measureHost()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: host calibration:", err)
		return 1
	}
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	var reports []*report
	for _, w := range chosen {
		rc := runConfig{
			workload: w.name, seed: *seed,
			dur:   time.Duration(*seconds * float64(time.Second)),
			trace: *traceLevel == 1,
		}
		if rc.trace {
			rc.rec = newRecorder()
		}
		debug.FreeOSMemory() // what earlier workloads left behind
		r, err := w.run(rc, fp)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		r.Fingerprint = fp
		if rc.trace {
			r.set("host.mem_bw_gbs", fp.MemBWGBs, "GB/s", 1)
			r.set("host.fft_gflops", fp.FFTGflops, "GFLOP/s", 1)
			r.set("host.peak_gflops", fp.PeakGflops, "GFLOP/s", 1)
			for _, s := range perLayer {
				if _, ok := r.Metrics[s.name]; !ok {
					r.set(s.name, 0, s.unit, 0) // layer not exercised by this workload
				}
			}
			path := filepath.Join(buildDir(), fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
			if err := rc.rec.write(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			r.Notes = append(r.Notes, "spans written to "+path)
		}
		r.writeTable(stdout)
		reports = append(reports, r)
	}
	if *out != "" {
		if err := writeReports(*out, reports); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := contractLines(reports)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// buildDir is where the benchmark keeps what it writes: the build
// directory run.sh uses.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// contractLines renders the last line: one workload's contract object,
// or for several workloads one object whose metric names are prefixed
// with the workload name.
func contractLines(reports []*report) ([]byte, error) {
	if len(reports) == 1 {
		return reports[0].contractLine()
	}
	all := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: true, Metrics: map[string]json.RawMessage{}}
	for _, r := range reports {
		line, err := r.contractLine()
		if err != nil {
			return nil, err
		}
		var one struct {
			Correct bool                       `json:"correct"`
			Metrics map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(line, &one); err != nil {
			return nil, err
		}
		all.Correct = all.Correct && one.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range one.Metrics {
			all.Metrics[r.Workload+"/"+k] = v
		}
	}
	return json.Marshal(all)
}

func writeReports(path string, reports []*report) error {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func readReports(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*report
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs) == 0 {
		return nil, errors.New(path + ": no reports")
	}
	return rs, nil
}
