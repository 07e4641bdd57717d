package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"soifft"
)

// flipBit corrupts the lowest mantissa bit of one reference value.
func flipBit(ref []complex128) {
	v := ref[len(ref)/3]
	ref[len(ref)/3] = complex(real(v), math.Float64frombits(math.Float64bits(imag(v))^1))
}

func contract(t *testing.T, r *report) map[string]any {
	t.Helper()
	line, err := r.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(line, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCorruptedReferenceIsCounted checks that every timed output is
// compared with the reference: with one bit of the reference flipped,
// every op of a closed-loop and of an open-loop workload counts as
// failed and the run is reported incorrect.
func TestCorruptedReferenceIsCounted(t *testing.T) {
	small := mix{
		items: []mixItem{{n: 1 << 10}, {n: 1 << 10, inverse: true}, {n: 1 << 10, acc: soifft.Accuracy200dB}},
		rate:  400, conns: 2, inputs: 2,
	}
	runs := map[string]func(rc runConfig) (*report, error){
		"closed-loop": func(rc runConfig) (*report, error) { return runNode(rc, fingerprint{}, 1<<12) },
		"open-loop":   func(rc runConfig) (*report, error) { return runServe(rc, fingerprint{}, small) },
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			rc := runConfig{workload: name, seed: 3, dur: 150 * time.Millisecond}
			clean, err := run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if clean.Failed != 0 || contract(t, clean)["correct"] != true {
				t.Fatalf("clean run: failed %d of %d, notes %v", clean.Failed, clean.Attempted, clean.Notes)
			}
			rc.refHook = flipBit
			bad, err := run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if bad.Attempted == 0 || bad.Failed != bad.Attempted {
				t.Fatalf("corrupted reference: failed %d of %d, want all", bad.Failed, bad.Attempted)
			}
			if contract(t, bad)["correct"] != false {
				t.Fatal("corrupted reference: run reported correct")
			}
			if got := bad.Metrics["error_ratio"].Value; got != 1 {
				t.Fatalf("error_ratio %v, want 1", got)
			}
		})
	}
}
