package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmokeEveryWorkload runs each workload end to end and traced on a
// 1024-vertex graph with one repetition and no reference kernel: the whole
// pipeline, including the lightne-serve child, the hot swap, the cold CLI
// run and every correctness check, in a few seconds.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the CLI binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/lightne", "./cmd/lightne-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the programs under test: %v\n%s", err, out)
	}
	for _, w := range workloads {
		w.scale = 10
		w.aucFloor = 0.55 // tiny graphs embed poorly; the floor only has to catch garbage
		for _, trace := range []bool{false, true} {
			name := w.name
			want := endToEnd
			if trace {
				name += "/trace"
				want = perLayer
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				rep, err := run(options{w: w, seed: 5, seconds: 1, trace: trace, binDir: bin, outDir: out, smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("reported %d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, d := range want {
					if mv, ok := rep.Metrics[d.name]; !ok || mv.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, mv, d.unit)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the harness's own tables
// and to the limits of the benchmark contract.
func TestBenchmarkJSONMatches(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	listed := listedWorkloads()
	if len(bf.Workloads) != len(listed) {
		t.Fatalf("%d workloads listed, harness lists %d", len(bf.Workloads), len(listed))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != listed[i].name || w.Why != listed[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q does not match the harness table", i, w.Name, w.Why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, harness reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		name(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end %d: %s (%s), harness has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g / better %q outside the contract", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds with better=lower")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, harness reports %d (limit 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %d: %s (%s), harness has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
