package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/tsim"
)

// TestWriteTimingOrdersDRAMUtil pins the dram-util lines to TrafficKind
// order: the split is a map, so ranging over it would print the lines in
// a different order from run to run.
func TestWriteTimingOrdersDRAMUtil(t *testing.T) {
	res := &tsim.Result{BusyFraction: map[dram.TrafficKind]float64{
		dram.TrafficOverflowHi: 0.04,
		dram.TrafficData:       0.5,
		dram.TrafficOverflowL0: 0.03,
		dram.TrafficCounter:    0.2,
	}}
	var first bytes.Buffer
	writeTiming(&first, res)
	var util []string
	for _, line := range strings.Split(first.String(), "\n") {
		if strings.HasPrefix(line, "dram-util/") {
			util = append(util, strings.Fields(line)[0])
		}
	}
	want := []string{"dram-util/data", "dram-util/counter", "dram-util/overflow-l0", "dram-util/overflow-hi"}
	if strings.Join(util, " ") != strings.Join(want, " ") {
		t.Fatalf("dram-util lines in order %v, want %v", util, want)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		writeTiming(&again, res)
		if again.String() != first.String() {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
}
