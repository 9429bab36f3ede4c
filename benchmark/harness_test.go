package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	xs := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.95, 48}, {1, 50}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{50, 10, 40, 20, 30}) {
		t.Error("percentile reordered its input")
	}
}

// The reference values are statistics.quantiles(xs, n=4) from Python.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread of 1..10 = %g, want %g", got, want)
	}
	// quantiles([2, 4, 4, 5, 9, 11], n=4) = [3.5, 4.5, 9.5]
	ys := []float64{9, 4, 2, 11, 5, 4}
	if got, want := quartileSpread(ys), (9.5-3.5)/4.5; !near(got, want) {
		t.Errorf("spread of six = %g, want %g", got, want)
	}
	// quantiles([1, 2], n=4) = [0.75, 1.5, 2.25]
	if got, want := quartileSpread([]float64{1, 2}), 1.5/1.5; !near(got, want) {
		t.Errorf("spread of two = %g, want %g", got, want)
	}
}

// fakeMachine scripts the reference kernel's readings and the steal counter.
type fakeMachine struct {
	refs   []float64
	next   int
	stolen float64
}

func (f *fakeMachine) ref() float64 {
	r := f.refs[f.next%len(f.refs)]
	f.next++
	return r
}

func (f *fakeMachine) steal() float64 { return f.stolen }

func TestMeterTakesAReferenceReadingBeforeEveryRep(t *testing.T) {
	fm := &fakeMachine{refs: []float64{0.10, 0.20, 0.30}}
	m := newMeter(fm.ref, fm.steal, false)
	var order []string
	n := 0
	reps, err := m.measure(0, 3, 3, func() { order = append(order, "before") }, func() (float64, error) {
		order = append(order, "rep")
		n++
		return float64(n), nil
	})
	if err != nil || len(reps) != 3 {
		t.Fatalf("measure: %d reps, err %v", len(reps), err)
	}
	for i, want := range []float64{0.10, 0.20, 0.30} {
		if reps[i].ref != want || reps[i].raw != float64(i+1) || reps[i].net != reps[i].raw || reps[i].stolen != 0 {
			t.Errorf("rep %d = %+v, want ref %g raw %d and nothing stolen", i, reps[i], want, i+1)
		}
	}
	if want := []string{"before", "rep", "before", "rep", "before", "rep"}; !reflect.DeepEqual(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
}

func TestMeterSubtractsStolenTime(t *testing.T) {
	// During rep 1 the hypervisor takes 20 % of the CPUs' time.
	fm := &fakeMachine{refs: []float64{refNominal}}
	m := newMeter(fm.ref, fm.steal, false)
	n := 0
	reps, _ := m.measure(0, 3, 3, nil, func() (float64, error) {
		t0 := time.Now()
		time.Sleep(20 * time.Millisecond)
		if n == 1 {
			fm.stolen += time.Since(t0).Seconds() * m.ncpu * 0.20
		}
		n++
		return time.Since(t0).Seconds(), nil
	})
	if reps[0].stolen != 0 || reps[0].net != reps[0].raw {
		t.Errorf("rep 0 lost %g of its time, want nothing", reps[0].stolen)
	}
	if s := reps[1].stolen; s < 0.15 || s > 0.21 {
		t.Errorf("rep 1 stolen share %g, want about 0.20", s)
	}
	if got, want := reps[1].net, reps[1].raw*(1-reps[1].stolen); !near(got, want) {
		t.Errorf("rep 1 net %g, want raw × (1 − stolen) = %g", got, want)
	}
	if got := stolenShare(reps); got < 0.04 || got > 0.08 {
		t.Errorf("stolen share over the phase %g, want about a third of 0.20", got)
	}
}

func TestMeterNeverSubtractsMoreThanTheRepTook(t *testing.T) {
	fm := &fakeMachine{refs: []float64{refNominal}}
	m := newMeter(fm.ref, fm.steal, false)
	reps, _ := m.measure(0, 1, 1, nil, func() (float64, error) {
		fm.stolen += 100 // a counter jump far beyond the interval
		return 0.5, nil
	})
	if reps[0].net != 0 || reps[0].stolen != 1 {
		t.Errorf("rep = %+v, want everything stolen and no more", reps[0])
	}
}

func TestMeterStopsAtBudgetOnceMinRepsAreTaken(t *testing.T) {
	fm := &fakeMachine{refs: []float64{refNominal}}
	m := newMeter(fm.ref, fm.steal, false)
	rep := func() (float64, error) { time.Sleep(5 * time.Millisecond); return 0.005, nil }
	if reps, _ := m.measure(0, 4, 100, nil, rep); len(reps) != 4 {
		t.Errorf("no budget: %d reps, want the minimum of 4", len(reps))
	}
	if reps, _ := m.measure(40*time.Millisecond, 2, 100, nil, rep); len(reps) < 5 || len(reps) > 9 {
		t.Errorf("40 ms of 5 ms reps: %d reps", len(reps))
	}
	if reps, _ := m.measure(time.Second, 1, 3, nil, rep); len(reps) != 3 {
		t.Errorf("maxReps 3: %d reps", len(reps))
	}
	if _, err := m.measure(0, 1, 1, nil, func() (float64, error) { return 0, errors.New("boom") }); err == nil {
		t.Error("a failing rep did not fail the phase")
	}
}

func TestPhaseSecondsDividesByTheMachineSpeedFactor(t *testing.T) {
	// The same program in a minute that is 25 % slower throughout: every rep
	// and every reference reading takes 1.25× as long.
	quiet := []sample{{net: 1.0, ref: refNominal}, {net: 1.2, ref: refNominal}, {net: 1.1, ref: refNominal}}
	var slow []sample
	for _, s := range quiet {
		slow = append(slow, sample{net: s.net * 1.25, ref: s.ref * 1.25})
	}
	if got := phaseSeconds(quiet); !near(got, 1.1) {
		t.Errorf("quiet phase = %g, want the median 1.1", got)
	}
	if got := speed(slow); !near(got, 1.25) {
		t.Errorf("speed factor = %g, want 1.25", got)
	}
	if got := phaseSeconds(slow); !near(got, 1.1) {
		t.Errorf("slow phase = %g, want 1.1 after scaling", got)
	}
	// One disturbed reference reading does not move the factor.
	slow[0].ref *= 3
	if got := speed(slow); !near(got, 1.25) {
		t.Errorf("speed factor with an outlier = %g, want 1.25", got)
	}
}

func TestLegSamplesSurviveTheWire(t *testing.T) {
	reps := []sample{{raw: 1.25, net: 1.2, ref: 0.16, stolen: 0.04}, {raw: 0.5, net: 0.5, ref: 0.17}}
	line, err := json.Marshal(leg{Embed: toWire(reps), Attempted: 3, Failed: 1, Notes: []string{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	var got leg
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromWire(got.Embed), reps) || got.Attempted != 3 || got.Failed != 1 || len(got.Notes) != 1 {
		t.Errorf("leg came back as %+v", got)
	}
}

func TestMeterOffTakesNoReferenceReadings(t *testing.T) {
	m := newMeter(func() float64 { t.Fatal("reference kernel ran"); return 0 }, func() float64 { return 0 }, true)
	reps, _ := m.measure(0, 2, 2, nil, func() (float64, error) { return 2, nil })
	if len(reps) != 2 || speed(reps) != 1 || phaseSeconds(reps) != 2 {
		t.Errorf("reps %+v, speed %g, phase %g; want two unscaled reps of 2 s", reps, speed(reps), phaseSeconds(reps))
	}
}

func TestReferenceKernelDoesFixedWork(t *testing.T) {
	k, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	// The chase table is one cycle through every slot.
	x, steps := uint32(0), 0
	for {
		x = k.next[x]
		steps++
		if x == 0 || steps > chaseElems {
			break
		}
	}
	if steps != chaseElems {
		t.Errorf("chase cycle has %d steps, want %d", steps, chaseElems)
	}
	if s := k.run(); s <= 0 {
		t.Errorf("reference run took %g s", s)
	}
	// After a run the Gram–Schmidt matrix has orthonormal columns.
	m := k.mgs[0]
	dot := func(a, b int) float64 {
		var d float64
		for r := 0; r < mgsRows; r++ {
			d += m[r*mgsCols+a] * m[r*mgsCols+b]
		}
		return d
	}
	if d := dot(3, 3); math.Abs(d-1) > 1e-9 {
		t.Errorf("column norm² = %g, want 1", d)
	}
	if d := dot(3, 40); math.Abs(d) > 1e-9 {
		t.Errorf("columns 3·40 = %g, want 0", d)
	}
	if got, want := k.residentMB(), float64(8*triadElems*(2+len(k.a))+4*chaseElems+8*mgsRows*mgsCols*len(k.a))/mb; got != want {
		t.Errorf("residentMB = %g, want %g", got, want)
	}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "root", Parent: -1, Start: 0, End: 10},
		{ID: 1, Name: "a", Parent: 0, Start: 1, End: 4},
		{ID: 2, Name: "b", Parent: 0, Start: 3, End: 6},    // overlaps a
		{ID: 3, Name: "c", Parent: 0, Start: 8, End: 12},   // runs past the root
		{ID: 4, Name: "a1", Parent: 1, Start: 1.5, End: 2}, // nested: counts against a only
		{ID: 5, Name: "other", Parent: -1, Start: 20, End: 21},
	}
	self := selfTimes(spans)
	// Children cover [1,6] and [8,10] of the root: 7 of 10.
	if !near(self[0], 3) {
		t.Errorf("root self time = %g, want 3", self[0])
	}
	if !near(self[1], 2.5) {
		t.Errorf("a self time = %g, want 2.5", self[1])
	}
	if !near(self[4], 0.5) || !near(self[5], 1) {
		t.Errorf("leaf self times = %g, %g, want 0.5, 1", self[4], self[5])
	}
	if got := accountedFrac(spans, 0); !near(got, 0.7) {
		t.Errorf("accounted fraction = %g, want 0.7", got)
	}
	if got := accountedFrac(spans, 5); got != 0 {
		t.Errorf("childless span accounted %g, want 0", got)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	tr := newTracer()
	root := tr.begin("core.embed", -1, 7)
	tr.in("sampler.sample", root, 7, func() { time.Sleep(time.Millisecond) })
	tr.in("sampler.sample", root, 7, func() {})
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].Parent != root || spans[1].Rep != 7 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	sums := sumByName(spans, 7)
	if sums["sampler.sample"] < 0.001 || sums["sampler.sample"] > sums["core.embed"] {
		t.Errorf("stage sum %g outside (1 ms, root %g)", sums["sampler.sample"], sums["core.embed"])
	}
	var none *tracer
	none.end(none.begin("x", -1, 0)) // must not panic
	if none.snapshot() != nil {
		t.Error("nil tracer returned spans")
	}
}

func TestMixIsDeterministicPerSeedAndHasTheStatedShares(t *testing.T) {
	queryable := []int{3, 5, 8, 13, 21, 34}
	draw := func(seed int64, n int) []request {
		r := rand.New(rand.NewSource(seed))
		out := make([]request, n)
		for i := range out {
			out[i] = nextRequest(r, queryable)
		}
		return out
	}
	a, b := draw(42, 500), draw(42, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request streams")
	}
	if reflect.DeepEqual(a, draw(43, 500)) {
		t.Fatal("different seeds gave the same request stream")
	}
	var counts [numOps]int
	for _, q := range draw(7, 20000) {
		counts[q.kind]++
		want := 1
		if q.kind == opBatch {
			want = batchSize
		}
		if len(q.vertices) != want {
			t.Fatalf("%v request carries %d vertices, want %d", q.kind, len(q.vertices), want)
		}
	}
	for k, want := range [numOps]float64{0.7, 0.1, 0.1, 0.1} {
		if got := float64(counts[k]) / 20000; math.Abs(got-want) > 0.015 {
			t.Errorf("kind %d share %.3f, want %.2f", k, got, want)
		}
	}
}

func TestSigmaWithin(t *testing.T) {
	a := []float64{10, 5, 1}
	if !sigmaWithin(a, []float64{10, 5, 1}, 0) {
		t.Error("equal spectra differ at tolerance 0")
	}
	if sigmaWithin(a, []float64{10, 5, 1 + 1e-9}, 0) {
		t.Error("unequal bits pass at tolerance 0")
	}
	if !sigmaWithin(a, []float64{10 + 5e-6, 5, 1}, 1e-6) || sigmaWithin(a, []float64{10 + 5e-5, 5, 1}, 1e-6) {
		t.Error("relative tolerance misjudged")
	}
	if sigmaWithin(a, a[:2], 1) {
		t.Error("spectra of different length compared equal")
	}
}
