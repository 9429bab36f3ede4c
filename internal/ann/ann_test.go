package ann

import (
	"runtime"
	"testing"

	"lightne/internal/dense"
	"lightne/internal/eval"
	"lightne/internal/quant"
	"lightne/internal/rng"
)

// clusteredMatrix builds an embedding with planted structure — the regime
// real network embeddings live in (community structure → direction
// clusters): nClusters random unit centers, each row a center plus
// gaussian noise of relative scale sigma.
func clusteredMatrix(n, d, nClusters int, sigma float64, seed uint64) *dense.Matrix {
	src := rng.New(seed, 0)
	centers := dense.NewMatrix(nClusters, d)
	centers.FillGaussian(seed + 1)
	x := dense.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		c := centers.Row(src.Intn(nClusters))
		row := x.Row(i)
		for j := 0; j < d; j++ {
			row[j] = c[j] + sigma*src.NormFloat64()
		}
	}
	return x
}

// recallAgainstExact averages recall@k of the IVF search against
// eval.NearestNeighbors ground truth over nq evenly spread queries, and
// also returns the mean scanned-candidate count.
func recallAgainstExact(t *testing.T, x *dense.Matrix, v Vectors, ix *Index, nq, k, nprobe int) (recall float64, meanScanned float64) {
	t.Helper()
	n, _ := v.Shape()
	var hits, totalScanned int
	for qi := 0; qi < nq; qi++ {
		q := qi * n / nq
		want, err := eval.NearestNeighbors(x, q, k)
		if err != nil {
			t.Fatal(err)
		}
		truth := make(map[int]bool, len(want))
		for _, nb := range want {
			truth[nb.Vertex] = true
		}
		got, _, scanned, err := ix.Search(v, q, k, nprobe)
		if err != nil {
			t.Fatal(err)
		}
		totalScanned += scanned
		for _, id := range got {
			if truth[id] {
				hits++
			}
		}
	}
	return float64(hits) / float64(nq*k), float64(totalScanned) / float64(nq)
}

// TestIVFRecallClustered is the core differential guarantee on realistic
// (clustered) data: recall@10 >= 0.95 against the exact eval scan while
// touching under a tenth of the rows per query.
func TestIVFRecallClustered(t *testing.T) {
	const n, d, k = 20_000, 16, 10
	x := clusteredMatrix(n, d, 64, 0.15, 7)
	e := quant.ToFloat32(x)
	ix, err := Build(e, Config{NList: 128, NProbe: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	recall, scanned := recallAgainstExact(t, x, e, ix, 50, k, 0)
	t.Logf("clustered: recall@%d = %.3f, scanned %.0f/%d rows/query", k, recall, scanned, n-1)
	if recall < 0.95 {
		t.Fatalf("recall@%d = %.3f, want >= 0.95", k, recall)
	}
	if scanned > float64(n-1)/10 {
		t.Fatalf("scanned %.0f rows/query, want <= %.0f (10x fewer than exact)", scanned, float64(n-1)/10)
	}
}

// TestIVFRecallRandom drives the worst case for a coarse quantizer —
// unclustered iid gaussian rows, where neighbors are weakly correlated with
// any partition — and pins that a wider probe still reaches 0.95 recall.
func TestIVFRecallRandom(t *testing.T) {
	const n, d, k = 4_000, 8, 10
	x := dense.NewMatrix(n, d)
	x.FillGaussian(11)
	e := quant.ToFloat32(x)
	ix, err := Build(e, Config{NList: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	recall, scanned := recallAgainstExact(t, x, e, ix, 50, k, 16)
	t.Logf("random: recall@%d = %.3f, scanned %.0f/%d rows/query", k, recall, scanned, n-1)
	if recall < 0.95 {
		t.Fatalf("recall@%d = %.3f, want >= 0.95", k, recall)
	}
	if scanned >= float64(n-1) {
		t.Fatalf("scanned %.0f rows/query — not sub-linear", scanned)
	}
}

// TestIVFRecall100k is the acceptance-scale run: a >= 100k-vertex snapshot
// where IVF must hold recall@10 >= 0.95 with >= 10x fewer distance
// computations than the exact scan.
func TestIVFRecall100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row build in -short mode")
	}
	const n, d, k = 100_000, 32, 10
	x := clusteredMatrix(n, d, 200, 0.12, 19)
	e := quant.ToFloat32(x)
	ix, err := Build(e, Config{NList: 256, NProbe: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	recall, scanned := recallAgainstExact(t, x, e, ix, 30, k, 0)
	t.Logf("100k: recall@%d = %.3f, scanned %.0f/%d rows/query (%.1fx fewer)",
		k, recall, scanned, n-1, float64(n-1)/scanned)
	if recall < 0.95 {
		t.Fatalf("recall@%d = %.3f, want >= 0.95", k, recall)
	}
	if scanned > float64(n-1)/10 {
		t.Fatalf("scanned %.0f rows/query, want <= %.0f (>=10x fewer than exact)", scanned, float64(n-1)/10)
	}
}

// TestIVFInt8 verifies the index runs end to end on the int8 codec — build,
// routing and candidate scan all through the quantized store — and stays
// close to the int8 exact scan (measuring IVF loss, not quantization loss).
func TestIVFInt8(t *testing.T) {
	const n, d, k = 10_000, 16, 10
	x := clusteredMatrix(n, d, 32, 0.15, 23)
	e := quant.ToInt8(x)
	ix, err := Build(e, Config{NList: 64, NProbe: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var hits, queries int
	for qi := 0; qi < 40; qi++ {
		q := qi * n / 40
		wantIdx, _, err := e.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		truth := make(map[int]bool, len(wantIdx))
		for _, id := range wantIdx {
			truth[id] = true
		}
		got, sims, scanned, err := ix.Search(e, q, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if scanned >= n-1 {
			t.Fatalf("query %d scanned every row", q)
		}
		for i := 1; i < len(sims); i++ {
			if sims[i] > sims[i-1] {
				t.Fatalf("query %d: similarities not sorted: %v", q, sims)
			}
		}
		for _, id := range got {
			if truth[id] {
				hits++
			}
		}
		queries++
	}
	recall := float64(hits) / float64(queries*k)
	t.Logf("int8: recall@%d = %.3f vs int8 exact scan", k, recall)
	if recall < 0.95 {
		t.Fatalf("int8 recall@%d = %.3f, want >= 0.95", k, recall)
	}
}

// TestIVFPostingListsPartition checks the CSR layout files every row
// exactly once, in ascending order within each list.
func TestIVFPostingListsPartition(t *testing.T) {
	const n, d = 5_000, 8
	x := clusteredMatrix(n, d, 16, 0.2, 31)
	e := quant.ToFloat32(x)
	ix, err := Build(e, Config{NList: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.start[0] != 0 || ix.start[ix.nlist] != int64(n) || len(ix.ids) != n {
		t.Fatalf("CSR shape: start[0]=%d start[nlist]=%d len(ids)=%d", ix.start[0], ix.start[ix.nlist], len(ix.ids))
	}
	seen := make([]bool, n)
	for c := 0; c < ix.nlist; c++ {
		list := ix.ids[ix.start[c]:ix.start[c+1]]
		for i, id := range list {
			if seen[id] {
				t.Fatalf("row %d filed twice", id)
			}
			seen[id] = true
			if i > 0 && list[i-1] >= id {
				t.Fatalf("list %d not in ascending row order", c)
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("row %d missing from every posting list", id)
		}
	}
	st := ix.Stats()
	if st.NList != 32 || st.Rows != n || st.MinList < 0 || st.MaxList < st.MinList {
		t.Fatalf("stats %+v", st)
	}
	if st.MemoryBytes != ix.MemoryBytes() || ix.MemoryBytes() <= 0 {
		t.Fatalf("memory accounting: %d vs %d", st.MemoryBytes, ix.MemoryBytes())
	}
}

// TestIVFDeterministicBuild pins that a fixed (config, GOMAXPROCS) build is
// bit-identical — centroids, offsets and posting lists.
func TestIVFDeterministicBuild(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	x := clusteredMatrix(3_000, 8, 12, 0.2, 41)
	e := quant.ToFloat32(x)
	cfg := Config{NList: 24, Seed: 17}
	a, err := Build(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.centroids {
		if a.centroids[i] != b.centroids[i] {
			t.Fatalf("centroid word %d differs across identical builds", i)
		}
	}
	for i := range a.start {
		if a.start[i] != b.start[i] {
			t.Fatalf("start[%d] differs", i)
		}
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] {
			t.Fatalf("ids[%d] differs", i)
		}
	}
}

func TestIVFErrorsAndEdges(t *testing.T) {
	x := clusteredMatrix(200, 4, 4, 0.2, 3)
	e := quant.ToFloat32(x)
	ix, err := Build(e, Config{NList: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ix.Search(e, -1, 3, 0); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, _, _, err := ix.Search(e, 200, 3, 0); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, _, _, err := ix.Search(e, 0, 0, 0); err == nil {
		t.Fatal("expected k error")
	}
	other := quant.ToFloat32(clusteredMatrix(100, 4, 4, 0.2, 3))
	if _, _, _, err := ix.Search(other, 0, 3, 0); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
	// Probing every list is an exact scan: k > rows returns rows-1 results.
	ids, _, scanned, err := ix.Search(e, 0, 500, ix.NList())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 199 || scanned != 200 {
		t.Fatalf("full probe: %d results, %d scanned", len(ids), scanned)
	}
	// NList larger than rows clamps; single-row embeddings index fine.
	one := quant.ToFloat32(clusteredMatrix(1, 4, 1, 0, 5))
	tiny, err := Build(one, Config{NList: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids, _, _, err = tiny.Search(one, 0, 3, 0)
	if err != nil || len(ids) != 0 {
		t.Fatalf("single-row search: ids=%v err=%v", ids, err)
	}
	if _, err := Build(e, Config{}); err != nil {
		t.Fatalf("all-default build: %v", err)
	}
}
