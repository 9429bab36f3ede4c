package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// boundDef is one end_to_end entry of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// worseBy is how much worse b is than a as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck runs every workload `runs` times as fresh child processes, one
// seed each, alternating between set A and set B (A B A B …), and holds
// identical code against the benchmark's own bounds: the two sets' medians
// must agree within each metric's bound, and the spread over all runs
// (quartile distance over median, as the driver computes it) must stay
// inside it. It prints one table row per workload and metric.
func selfCheck(boundsPath, binDir, outDir string, seed uint64, seconds float64, runs int) (bool, error) {
	bf, err := readBenchmarkFile(boundsPath)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range listedWorkloads() {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-bin", binDir, "-out", outDir)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return false, fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				return false, fmt.Errorf("%s run %d: last line is not a report: %w", w.name, i, err)
			}
			if !rep.Correct {
				return false, fmt.Errorf("%s run %d: %d of %d failed", w.name, i, rep.Failed, rep.Attempted)
			}
			for name, mv := range rep.Metrics {
				sets[i%2][name] = append(sets[i%2][name], mv.Value)
			}
		}
		for _, b := range bf.EndToEnd {
			a, bb := median(sets[0][b.Name]), median(sets[1][b.Name])
			diff := worseBy(b.Better, a, bb)
			if d := worseBy(b.Better, bb, a); d > diff {
				diff = d
			}
			spread := quartileSpread(append(append([]float64(nil), sets[0][b.Name]...), sets[1][b.Name]...))
			verdict := "ok"
			// The driver does not hold setup_s's spread against its bound.
			if diff > b.Bound || (spread > b.Bound && b.Name != "setup_s") {
				verdict = "MISS"
				ok = false
			}
			fmt.Printf("| %s | %s (%s) | %.5g | %.5g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.name, b.Name, b.Unit, a, bb, diff*100, spread*100, b.Bound*100, verdict)
		}
	}
	return ok, nil
}
