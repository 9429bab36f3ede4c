package eval

import (
	"math"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/graph"
	"lightne/internal/rng"
)

// separableFeatures builds a dataset whose classes are linearly separable:
// class c lives around the c-th axis direction.
func separableFeatures(n, classes, d int, seed uint64) (*dense.Matrix, [][]int) {
	src := rng.New(seed, 0)
	x := dense.NewMatrix(n, d)
	labels := make([][]int, n)
	for i := 0; i < n; i++ {
		c := src.Intn(classes)
		labels[i] = []int{c}
		for j := 0; j < d; j++ {
			x.Set(i, j, 0.3*src.NormFloat64())
		}
		x.Set(i, c%d, x.At(i, c%d)+3)
	}
	return x, labels
}

func TestTrainOneVsRestSeparable(t *testing.T) {
	x, labels := separableFeatures(400, 4, 8, 1)
	res, err := NodeClassification(x, labels, 4, 0.5, 7, DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	if res.MicroF1 < 0.95 || res.MacroF1 < 0.95 {
		t.Fatalf("separable data should score near 1: micro=%.3f macro=%.3f", res.MicroF1, res.MacroF1)
	}
	if res.TrainSize+res.TestSize != 400 {
		t.Fatalf("split sizes %d+%d != 400", res.TrainSize, res.TestSize)
	}
}

func TestNodeClassificationRandomFeaturesNearChance(t *testing.T) {
	// Pure-noise features: micro-F1 should be near 1/classes.
	src := rng.New(3, 0)
	n, classes := 600, 5
	x := dense.NewMatrix(n, 8)
	x.FillGaussian(2)
	labels := make([][]int, n)
	for i := range labels {
		labels[i] = []int{src.Intn(classes)}
	}
	res, err := NodeClassification(x, labels, classes, 0.5, 11, DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	if res.MicroF1 > 0.35 {
		t.Fatalf("random features scored %.3f, suspiciously high", res.MicroF1)
	}
}

func TestF1ScoresHandComputed(t *testing.T) {
	truth := [][]int{{0}, {1}, {0, 1}}
	pred := [][]int{{0}, {0}, {0, 1}}
	micro, macro := F1Scores(pred, truth, 2)
	// tp0=2 (rows 0,2), fp0=1 (row 1), fn0=0; tp1=1 (row 2), fp1=0, fn1=1.
	// micro = 2*3/(2*3+1+1) = 6/8 = 0.75
	if math.Abs(micro-0.75) > 1e-12 {
		t.Fatalf("micro=%g want 0.75", micro)
	}
	// f1_0 = 4/5, f1_1 = 2/3 → macro = (0.8+0.6667)/2
	want := (0.8 + 2.0/3.0) / 2
	if math.Abs(macro-want) > 1e-12 {
		t.Fatalf("macro=%g want %g", macro, want)
	}
}

func TestF1PerfectAndZero(t *testing.T) {
	truth := [][]int{{0}, {1}}
	micro, macro := F1Scores(truth, truth, 2)
	if micro != 1 || macro != 1 {
		t.Fatalf("perfect prediction: micro=%g macro=%g", micro, macro)
	}
	pred := [][]int{{1}, {0}}
	micro, macro = F1Scores(pred, truth, 2)
	if micro != 0 || macro != 0 {
		t.Fatalf("inverted prediction: micro=%g macro=%g", micro, macro)
	}
}

func TestPredictTopK(t *testing.T) {
	x, labels := separableFeatures(200, 3, 6, 5)
	rows := make([]int, 100)
	lab := make([][]int, 100)
	for i := range rows {
		rows[i] = i
		lab[i] = labels[i]
	}
	clf, err := TrainOneVsRest(x, rows, lab, 3, DefaultTrain())
	if err != nil {
		t.Fatal(err)
	}
	p := clf.PredictTopK(x, 150, 2)
	if len(p) != 2 {
		t.Fatalf("PredictTopK returned %d labels", len(p))
	}
	if p[0] == p[1] {
		t.Fatal("duplicate predicted labels")
	}
	// k larger than classes clamps.
	p = clf.PredictTopK(x, 150, 10)
	if len(p) != 3 {
		t.Fatalf("clamped k: got %d", len(p))
	}
}

func TestTrainErrors(t *testing.T) {
	x := dense.NewMatrix(4, 2)
	if _, err := TrainOneVsRest(x, nil, nil, 2, DefaultTrain()); err == nil {
		t.Fatal("expected empty-train error")
	}
	if _, err := TrainOneVsRest(x, []int{0}, [][]int{{5}}, 2, DefaultTrain()); err == nil {
		t.Fatal("expected out-of-range label error")
	}
	labels := [][]int{{0}, {1}, {0}, {1}}
	if _, err := NodeClassification(x, labels, 2, 0, 1, DefaultTrain()); err == nil {
		t.Fatal("expected ratio error")
	}
	if _, err := NodeClassification(x, [][]int{nil, nil, nil, nil}, 2, 0.5, 1, DefaultTrain()); err == nil {
		t.Fatal("expected too-few-labeled error")
	}
}

func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	arcs := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		arcs[i] = graph.Edge{U: uint32(i), V: uint32((i + 1) % n)}
	}
	g, err := graph.FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSplitEdges(t *testing.T) {
	g := ringGraph(t, 100)
	train, test, err := SplitEdges(g, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(test) != 10 {
		t.Fatalf("test size %d want 10", len(test))
	}
	if train.NumEdges() != g.NumEdges()-2*int64(len(test)) {
		t.Fatalf("train arcs %d want %d", train.NumEdges(), g.NumEdges()-20)
	}
	// Test edges must not appear in the training graph.
	for _, e := range test {
		for _, nb := range train.Neighbors(e.U, nil) {
			if nb == e.V {
				t.Fatalf("test edge (%d,%d) leaked into training graph", e.U, e.V)
			}
		}
	}
	if _, _, err := SplitEdges(g, 1.5, 1); err == nil {
		t.Fatal("expected fraction error")
	}
}

func TestAUCOnPlantedEmbedding(t *testing.T) {
	// Embedding where linked pairs share a latent direction → near-1 AUC.
	n, d := 200, 8
	src := rng.New(9, 0)
	x := dense.NewMatrix(n, d)
	group := make([]int, n)
	for i := 0; i < n; i++ {
		group[i] = i % 4
		for j := 0; j < d; j++ {
			x.Set(i, j, 0.1*src.NormFloat64())
		}
		x.Set(i, group[i], x.At(i, group[i])+2)
	}
	var test []graph.Edge
	for i := 0; i < n; i += 2 {
		j := (i + 4) % n // same group
		test = append(test, graph.Edge{U: uint32(i), V: uint32(j)})
	}
	// Random negatives share a group ~1/4 of the time and then score as
	// high as positives, so the ideal AUC here is ≈ 1 - 0.25/2 ≈ 0.88.
	auc := AUC(x, test, 50, 13)
	if auc < 0.82 {
		t.Fatalf("planted AUC %.3f too low", auc)
	}
	// Random embedding → AUC near 0.5.
	x2 := dense.NewMatrix(n, d)
	x2.FillGaussian(4)
	auc = AUC(x2, test, 50, 13)
	if math.Abs(auc-0.5) > 0.12 {
		t.Fatalf("random AUC %.3f not near 0.5", auc)
	}
	if AUC(x, nil, 10, 1) != 0 {
		t.Fatal("empty test should return 0")
	}
}

func TestRankingPerfectEmbedding(t *testing.T) {
	// Make each positive pair share a coordinate unique to it, so the true
	// target out-scores every corrupted target: rank must be exactly 1.
	n := 60
	pairs := 10
	d := pairs + 1
	x := dense.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
	}
	var test []graph.Edge
	for i := 0; i < pairs; i++ {
		u, v := uint32(2*i), uint32(2*i+1)
		x.Set(int(u), 1+i, 100)
		x.Set(int(v), 1+i, 100)
		test = append(test, graph.Edge{U: u, V: v})
	}
	res := Ranking(x, test, 50, []int{1, 10}, 5)
	if res.MR != 1 {
		t.Fatalf("MR=%.2f want exactly 1 for uniquely planted pairs", res.MR)
	}
	if res.MRR != 1 {
		t.Fatalf("MRR=%.3f want 1", res.MRR)
	}
	if res.Hits[10] < res.Hits[1] {
		t.Fatal("HITS@10 must be >= HITS@1")
	}
	if res.Tests != len(test) {
		t.Fatalf("Tests=%d", res.Tests)
	}
}

func TestRankingRandomNearUniform(t *testing.T) {
	n := 200
	x := dense.NewMatrix(n, 8)
	x.FillGaussian(77)
	var test []graph.Edge
	src := rng.New(3, 1)
	for i := 0; i < 60; i++ {
		test = append(test, graph.Edge{U: uint32(src.Intn(n)), V: uint32(src.Intn(n))})
	}
	res := Ranking(x, test, 99, []int{1, 10, 50}, 9)
	// Uniform ranks over 1..100 → MR ≈ 50.
	if res.MR < 25 || res.MR > 75 {
		t.Fatalf("random MR=%.1f outside [25,75]", res.MR)
	}
	if res.Hits[50] < res.Hits[10] || res.Hits[10] < res.Hits[1] {
		t.Fatal("HITS@K must be monotone in K")
	}
}

func TestExactRankingAgainstSampled(t *testing.T) {
	// With negatives ≫ n, sampled Ranking must approach ExactRanking.
	n := 80
	x := dense.NewMatrix(n, 6)
	x.FillGaussian(21)
	var test []graph.Edge
	src := rng.New(5, 2)
	for i := 0; i < 30; i++ {
		test = append(test, graph.Edge{U: uint32(src.Intn(n)), V: uint32(src.Intn(n))})
	}
	exact := ExactRanking(x, test, []int{1, 10}, nil)
	sampled := Ranking(x, test, 5000, []int{1, 10}, 9)
	// Sampled ranks are scaled by the candidate-pool ratio; compare via the
	// normalized rank (rank / pool size).
	exactNorm := exact.MR / float64(n)
	sampledNorm := sampled.MR / 5000
	if math.Abs(exactNorm-sampledNorm) > 0.08 {
		t.Fatalf("normalized MR: exact %.3f vs sampled %.3f", exactNorm, sampledNorm)
	}
	if exact.Tests != len(test) {
		t.Fatal("test count wrong")
	}
}

func TestExactRankingPlantedPair(t *testing.T) {
	n := 40
	x := dense.NewMatrix(n, 4)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 1)
	}
	x.Set(3, 1, 100)
	x.Set(7, 1, 100)
	res := ExactRanking(x, []graph.Edge{{U: 3, V: 7}}, []int{1}, nil)
	if res.MR != 1 || res.Hits[1] != 1 {
		t.Fatalf("planted pair should rank 1: MR=%.1f", res.MR)
	}
	// Exclusion callback removes competitors.
	x.Set(9, 1, 200) // stronger competitor
	res = ExactRanking(x, []graph.Edge{{U: 3, V: 7}}, []int{1}, func(u, v uint32) bool { return v == 9 })
	if res.MR != 1 {
		t.Fatalf("exclusion not applied: MR=%.1f", res.MR)
	}
	if got := ExactRanking(x, nil, []int{1}, nil); got.Tests != 0 {
		t.Fatal("empty test set should be empty result")
	}
}
