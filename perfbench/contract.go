package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readBounds returns each end-to-end metric's regression bound.
func readBounds(path string) (map[string]float64, error) {
	b, err := readBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
