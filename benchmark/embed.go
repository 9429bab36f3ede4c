package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lightne"
)

// checks counts what the run attempted and what failed: timed reps,
// correctness checks and HTTP requests alike.
type checks struct {
	attempted, failed int
	notes             []string
}

// check counts one attempt and records a failure when ok is false.
func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// embedPhase is the outcome of the lightne.Embed repetitions.
type embedPhase struct {
	reps  []sample
	wallS float64 // phaseSeconds(reps)
	rawS  float64 // median rep as the clock read it
	res   *lightne.Result
	auc   float64
	rssMB float64 // harness VmHWM right after the reps, less the reference kernel's buffers
}

// wellFormed reports whether x is rows×cols with only finite entries.
func wellFormed(x *lightne.Matrix, rows, cols int) bool {
	if x == nil || x.Rows != rows || x.Cols != cols || len(x.Data) != rows*cols {
		return false
	}
	for _, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// runEmbedPhase times lightne.Embed on the prepared graph: untimed warm-ups
// bring the Go heap and the touched pages to steady state, then reps fill
// the budget. Every rep's embedding is checked; AUC is computed on the last
// one (all reps share a seed and should agree). refMB is what the reference
// kernel's buffers add to the resident set.
func runEmbedPhase(m *meter, w workload, in *inputs, seed uint64, budget time.Duration, warmups, minReps int, refMB float64, c *checks) (*embedPhase, error) {
	cfg := w.config()
	cfg.Seed = seed
	ph := &embedPhase{}
	embed := func() (float64, error) {
		t := time.Now()
		res, err := lightne.Embed(in.g, cfg)
		wall := since(t)
		if err != nil {
			return 0, err
		}
		c.check(wellFormed(res.Embedding, in.n, cfg.Dim), "embedding is not a finite %dx%d matrix", in.n, cfg.Dim)
		ph.res = res
		return wall, nil
	}
	for i := 0; i < warmups; i++ {
		if _, err := embed(); err != nil {
			return nil, err
		}
	}
	var err error
	ph.reps, err = m.measure(budget, minReps, 1000, runtime.GC, embed)
	if err != nil {
		return nil, err
	}
	ph.rssMB = vmHWMMB(os.Getpid()) - refMB
	logSamples("embed s", ph.reps)
	ph.wallS, ph.rawS = phaseSeconds(ph.reps), median(pick(ph.reps, rawOf))
	ph.auc = lightne.AUC(ph.res.Embedding, in.test, aucNegatives, seed+2)
	c.check(ph.auc >= w.aucFloor, "linkpred_auc %.4f below the workload's floor %.2f", ph.auc, w.aucFloor)
	return ph, nil
}

// vmHWMMB reads a process's peak resident set from /proc (0 if absent). For
// a child this is the figure to trust: the ru_maxrss wait4 returns starts
// from the parent's resident set at fork, so it reports the harness's size
// for any child smaller than the harness.
func vmHWMMB(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
