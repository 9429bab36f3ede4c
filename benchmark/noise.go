package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The noise protocol. The sandbox this benchmark was sized on is a two-vCPU
// virtual machine on a shared host, and identical code does not run at one
// speed on it (README.md has the measurements):
//
//   - the hypervisor takes the CPUs away in bursts. The kernel counts that
//     time (the steal column of /proc/stat), so it is subtracted from every
//     timed interval;
//   - each vCPU switches, for seconds at a time, between discrete speeds up
//     to 1.75× apart (a register-only loop pinned to one vCPU shows them), and
//     the memory system slows by up to 1.8× on top, neither counted anywhere.
//     The mean slowdown drifts over minutes, so more reps in a run do not
//     remove it. A fixed reference kernel owned by the harness is therefore
//     run before every timed rep, and a phase's median time is divided by the
//     machine-speed factor the reference readings of that phase give.
//
// Probes around a rep do not predict that rep (correlation 0.2–0.5), so no
// rep is rejected: every rep counts, and the reference is used only through
// the median over a whole phase.

// refNominal is the reference kernel's median time on the sandbox. A phase
// whose reference readings have this median reports its times as the clock
// read them (less stolen time); in a minute, or on a machine, where the
// kernel takes 10 % longer the phase's times are divided by 1.1.
const refNominal = 0.165

// stealTick is the granularity of the steal counter (USER_HZ is 100 on every
// Linux ABI).
const stealTick = 0.01

// stolenCPUSeconds reads the cumulative steal time of all CPUs from
// /proc/stat; 0 where the kernel does not report it.
func stolenCPUSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks * stealTick
}

// Sizes of the reference kernel's three parts. Each part takes about a third
// of refNominal and keeps every hardware thread busy: a stream triad and a
// dependent pointer chase over arrays beyond the 4 MiB L2 (the sampler, the
// hash table and SpMM are bound by the memory system) and a modified
// Gram–Schmidt sweep over an L2-resident n×k matrix (the dense kernels are
// not).
const (
	triadElems  = 1 << 20 // float64 per array: 8 MiB
	triadPasses = 10
	chaseElems  = 1 << 23 // uint32: 32 MiB
	chaseSteps  = 600_000
	mgsRows     = 2048
	mgsCols     = 64
)

// refKernel is the harness's own fixed computation. It calls nothing of the
// program under test, so a change to the program cannot move it.
type refKernel struct {
	b, c  []float64   // triad inputs, shared read-only
	a     [][]float64 // triad output, one per thread
	next  []uint32    // one cycle through all of chaseElems, shared read-only
	mgs   [][]float64 // mgsRows×mgsCols row-major, one per thread
	sinks []uint32
}

// offHeap maps n zeroed bytes outside the Go heap, for the life of the
// process: buffers on the heap would raise the collector's target and with
// it the peak memory of the program under test.
func offHeap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func offHeapFloat64(n int) ([]float64, error) {
	b, err := offHeap(8 * n)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
}

func newRefKernel() (*refKernel, error) {
	threads := runtime.GOMAXPROCS(0)
	k := &refKernel{a: make([][]float64, threads), mgs: make([][]float64, threads), sinks: make([]uint32, threads)}
	var err error
	alloc := func(n int) []float64 {
		var s []float64
		if err == nil {
			s, err = offHeapFloat64(n)
		}
		return s
	}
	k.b, k.c = alloc(triadElems), alloc(triadElems)
	for t := 0; t < threads; t++ {
		k.a[t], k.mgs[t] = alloc(triadElems), alloc(mgsRows*mgsCols)
	}
	var next []byte
	if err == nil {
		next, err = offHeap(4 * chaseElems)
	}
	if err != nil {
		return nil, fmt.Errorf("mapping the reference kernel's buffers: %w", err)
	}
	k.next = unsafe.Slice((*uint32)(unsafe.Pointer(&next[0])), chaseElems)
	for i := range k.b {
		k.b[i] = float64(i)
		k.c[i] = 0.5
	}
	// A stride coprime with the length visits every slot once; it is far
	// larger than a page, so neither the prefetcher nor the TLB helps.
	const stride = 9973 * 1031
	x := uint32(0)
	for i := 0; i < chaseElems; i++ {
		nx := uint32((uint64(x) + stride) % chaseElems)
		k.next[x] = nx
		x = nx
	}
	k.run() // touches every page, so that no reading pays for first touch
	return k, nil
}

// residentMB is what the kernel's buffers add to the harness's resident set.
func (k *refKernel) residentMB() float64 {
	bytes := 8*(len(k.b)+len(k.c)) + 4*len(k.next)
	for t := range k.a {
		bytes += 8 * (len(k.a[t]) + len(k.mgs[t]))
	}
	return float64(bytes) / mb
}

// run executes the kernel once on every hardware thread and returns the
// seconds it took.
func (k *refKernel) run() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for t := range k.a {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			a := k.a[t]
			for pass := 0; pass < triadPasses; pass++ {
				for i := range a {
					a[i] = k.b[i] + 3*k.c[i]
				}
			}
			x := uint32(t * (chaseElems / len(k.a)))
			for i := 0; i < chaseSteps; i++ {
				x = k.next[x]
			}
			k.sinks[t] = x // keeps the chase live
			gramSchmidt(k.mgs[t], mgsRows, mgsCols)
		}(t)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// gramSchmidt refills m (rows×cols, row-major) with a fixed pattern and
// orthonormalizes its columns in place.
func gramSchmidt(m []float64, rows, cols int) {
	for i := range m {
		m[i] = float64((i*2654435761)%1000)/1000 - 0.5
	}
	for j := 0; j < cols; j++ {
		var norm float64
		for r := 0; r < rows; r++ {
			norm += m[r*cols+j] * m[r*cols+j]
		}
		norm = 1 / math.Sqrt(norm)
		for r := 0; r < rows; r++ {
			m[r*cols+j] *= norm
		}
		for l := j + 1; l < cols; l++ {
			var dot float64
			for r := 0; r < rows; r++ {
				dot += m[r*cols+j] * m[r*cols+l]
			}
			for r := 0; r < rows; r++ {
				m[r*cols+l] -= dot * m[r*cols+j]
			}
		}
	}
}

// sample is one timed repetition.
type sample struct {
	raw    float64 // seconds, as the clock read them
	net    float64 // raw minus the time the average CPU was stolen during the rep
	ref    float64 // net seconds of the reference kernel run right before the rep
	stolen float64 // share of the CPUs' time the hypervisor took during the rep
}

// meter takes timed repetitions with a reference reading before each.
type meter struct {
	ref   func() float64 // runs the reference kernel, returns its seconds
	steal func() float64 // cumulative stolen CPU-seconds
	ncpu  float64
	// off skips the reference kernel (smoke tests); phases then report the
	// net times unscaled.
	off bool
}

func newMeter(ref func() float64, steal func() float64, off bool) *meter {
	return &meter{ref: ref, steal: steal, ncpu: float64(runtime.NumCPU()), off: off}
}

// timed runs fn, which returns the seconds of its own timed section, and
// subtracts the time the average CPU was stolen while fn ran. The counter
// moves in 10 ms ticks, which is noise on one rep and averages out over a
// phase.
func (m *meter) timed(fn func() (float64, error)) (sample, error) {
	s0, t0 := m.steal(), time.Now()
	raw, err := fn()
	if err != nil {
		return sample{}, err
	}
	lost := (m.steal() - s0) / m.ncpu
	elapsed := time.Since(t0).Seconds()
	if lost > elapsed { // a tick that belongs to the interval before
		lost = elapsed
	}
	return sample{raw: raw, net: raw * (1 - lost/elapsed), stolen: lost / elapsed}, nil
}

// measure takes reps until the budget is spent and at least minReps are
// taken, never more than maxReps. A rep is: reference kernel, before (outside
// every clock; runtime.GC in production), fn.
func (m *meter) measure(budget time.Duration, minReps, maxReps int, before func(), fn func() (float64, error)) ([]sample, error) {
	start := time.Now()
	var out []sample
	for len(out) < maxReps && (len(out) < minReps || time.Since(start) < budget) {
		var ref float64
		if !m.off {
			r, _ := m.timed(func() (float64, error) { return m.ref(), nil }) // the kernel cannot fail
			ref = r.net
		}
		if before != nil {
			before()
		}
		s, err := m.timed(fn)
		if err != nil {
			return out, err
		}
		s.ref = ref
		out = append(out, s)
	}
	return out, nil
}

// pick maps samples to one of their fields.
func pick(samples []sample, field func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = field(s)
	}
	return out
}

func rawOf(s sample) float64 { return s.raw }
func netOf(s sample) float64 { return s.net }
func refOf(s sample) float64 { return s.ref }

// speed is the machine-speed factor of a phase: the median reference reading
// over refNominal, 1 when the meter is off. Durations measured in the phase
// are divided by it. Crediting a phase with only part of the reference's
// slowdown (an exponent below 1) is steadier on a quiet machine — the
// reference median carries 3–5 % noise of its own — but worse in a bad
// quarter of an hour; over twelve ten-seed sweeps of identical code the full
// factor had the smallest worst-case spread (7.7 %, against 11.3 % unscaled;
// README.md has the table).
func speed(samples []sample) float64 {
	if r := median(pick(samples, refOf)); r > 0 {
		return r / refNominal
	}
	return 1
}

// phaseSeconds is the phase figure, what a phase of timed reps reports: the
// median net time over the machine-speed factor.
func phaseSeconds(samples []sample) float64 {
	return median(pick(samples, netOf)) / speed(samples)
}

// stolenShare is the share of the CPUs' time stolen over all of samples.
func stolenShare(samples []sample) float64 {
	var lost, total float64
	for _, s := range samples {
		lost += s.stolen * s.raw
		total += s.raw
	}
	if total == 0 {
		return 0
	}
	return lost / total
}

// logSamples prints every rep's clock reading, the share of CPU time stolen
// during it and the reference reading before it, so the sample behind a
// median can be read.
func logSamples(what string, samples []sample) {
	var b strings.Builder
	for _, s := range samples {
		b.WriteString(" " + strconv.FormatFloat(s.raw, 'g', 4, 64) +
			"(" + strconv.FormatFloat(s.stolen*100, 'f', 0, 64) + "%," + strconv.FormatFloat(s.ref, 'f', 3, 64) + ")")
	}
	os.Stderr.WriteString("  " + what + " (CPU stolen, reference s):" + b.String() + "\n")
}
