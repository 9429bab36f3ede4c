package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lightne/internal/ann"
	"lightne/internal/core"
	"lightne/internal/dense"
	"lightne/internal/dynamic"
	"lightne/internal/graph"
)

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// clusteredEmbedding builds a deterministic embedding with two well
// separated direction clusters: vertices [0, n/2) lie near e1, the rest
// near e2, with per-vertex perturbations so rankings are stable.
func clusteredEmbedding(n, d int) *dense.Matrix {
	x := dense.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		axis := 0
		if i >= n/2 {
			axis = 1
		}
		x.Set(i, axis, 10)
		// Small deterministic perturbation, unique per vertex.
		x.Set(i, 2, 0.01*float64(i%7))
		x.Set(i, 3, 0.005*float64(i%11))
	}
	return x
}

func newTestServer(t *testing.T, n, d int) (*Store, *httptest.Server) {
	t.Helper()
	ix, err := NewIndex(clusteredEmbedding(n, d), "float32")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	store.Publish(ix, 0)
	ts := httptest.NewServer(New(store).Handler())
	t.Cleanup(ts.Close)
	return store, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response of %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealthzBeforeAndAfterPublish(t *testing.T) {
	store := NewStore()
	ts := httptest.NewServer(New(store).Handler())
	defer ts.Close()
	var h HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("before publish: status %d", code)
	}
	if h.Status != "loading" {
		t.Fatalf("status %q", h.Status)
	}
	ix, err := NewIndex(clusteredEmbedding(10, 4), "")
	if err != nil {
		t.Fatal(err)
	}
	store.Publish(ix, 0.25)
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("after publish: status %d", code)
	}
	if h.Status != "ok" || h.Vertices != 10 || h.Dims != 4 || h.SnapshotVersion != 1 || h.Staleness != 0.25 {
		t.Fatalf("health %+v", h)
	}
}

func TestNeighborsGETAndPOST(t *testing.T) {
	_, ts := newTestServer(t, 20, 4)
	var got NeighborsResponse
	if code := getJSON(t, ts.URL+"/v1/neighbors?vertex=0&k=5", &got); code != http.StatusOK {
		t.Fatalf("GET status %d", code)
	}
	if got.Vertex != 0 || got.K != 5 || len(got.Neighbors) != 5 || got.SnapshotVersion != 1 {
		t.Fatalf("GET response %+v", got)
	}
	// Vertex 0 is in the e1 cluster (vertices 0..9): all its nearest
	// neighbors must come from there.
	for _, nb := range got.Neighbors {
		if nb.Vertex >= 10 {
			t.Fatalf("cross-cluster neighbor %d", nb.Vertex)
		}
		if nb.Score < 0.99 {
			t.Fatalf("same-cluster score %g too low", nb.Score)
		}
	}
	var post NeighborsResponse
	if code := postJSON(t, ts.URL+"/v1/neighbors", `{"vertex":0,"k":5}`, &post); code != http.StatusOK {
		t.Fatalf("POST status %d", code)
	}
	if len(post.Neighbors) != len(got.Neighbors) {
		t.Fatalf("GET/POST disagree: %d vs %d", len(got.Neighbors), len(post.Neighbors))
	}
	for i := range post.Neighbors {
		if post.Neighbors[i] != got.Neighbors[i] {
			t.Fatalf("GET/POST rank %d: %+v vs %+v", i, got.Neighbors[i], post.Neighbors[i])
		}
	}
	// Omitted k uses the default.
	if code := postJSON(t, ts.URL+"/v1/neighbors", `{"vertex":3}`, &got); code != http.StatusOK {
		t.Fatalf("default-k status %d", code)
	}
	if got.K != DefaultK {
		t.Fatalf("default k = %d", got.K)
	}
}

func TestNeighborsErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, 20, 4)
	cases := []struct {
		name string
		do   func() int
		want int
	}{
		{"unknown vertex GET", func() int { return getJSON(t, ts.URL+"/v1/neighbors?vertex=99&k=3", nil) }, http.StatusNotFound},
		{"negative vertex", func() int { return getJSON(t, ts.URL+"/v1/neighbors?vertex=-1&k=3", nil) }, http.StatusNotFound},
		{"k zero", func() int { return getJSON(t, ts.URL+"/v1/neighbors?vertex=0&k=0", nil) }, http.StatusBadRequest},
		{"k negative POST", func() int { return postJSON(t, ts.URL+"/v1/neighbors", `{"vertex":0,"k":-2}`, nil) }, http.StatusBadRequest},
		{"non-numeric vertex", func() int { return getJSON(t, ts.URL+"/v1/neighbors?vertex=abc", nil) }, http.StatusBadRequest},
		{"missing vertex", func() int { return getJSON(t, ts.URL+"/v1/neighbors", nil) }, http.StatusBadRequest},
		{"malformed JSON", func() int { return postJSON(t, ts.URL+"/v1/neighbors", `{"vertex":`, nil) }, http.StatusBadRequest},
		{"unknown field", func() int { return postJSON(t, ts.URL+"/v1/neighbors", `{"vertx":3}`, nil) }, http.StatusBadRequest},
		{"unknown vertex POST", func() int { return postJSON(t, ts.URL+"/v1/neighbors", `{"vertex":1000,"k":3}`, nil) }, http.StatusNotFound},
	}
	for _, tc := range cases {
		if got := tc.do(); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	// Error bodies carry a JSON error message.
	var e map[string]string
	if code := getJSON(t, ts.URL+"/v1/neighbors?vertex=99&k=3", &e); code != http.StatusNotFound || e["error"] == "" {
		t.Fatalf("error body %v (status %d)", e, code)
	}
}

func TestEmbeddingEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 12, 4)
	var got EmbeddingResponse
	if code := getJSON(t, ts.URL+"/v1/embedding/3", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Vertex != 3 || got.Dims != 4 || len(got.Vector) != 4 {
		t.Fatalf("response %+v", got)
	}
	// Vertex 3 is in the first cluster: coordinate 0 carries the weight.
	if got.Vector[0] != 10 {
		t.Fatalf("vector %v", got.Vector)
	}
	if code := getJSON(t, ts.URL+"/v1/embedding/99", nil); code != http.StatusNotFound {
		t.Fatalf("unknown vertex: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/embedding/xyz", nil); code != http.StatusBadRequest {
		t.Fatalf("bad vertex: status %d", code)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 20, 4)
	var got BatchResponse
	body := `{"queries":[{"vertex":0,"k":3},{"vertex":99,"k":3},{"vertex":15,"k":-1},{"vertex":15,"k":2}]}`
	if code := postJSON(t, ts.URL+"/v1/batch", body, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Results) != 4 {
		t.Fatalf("%d results", len(got.Results))
	}
	if len(got.Results[0].Neighbors) != 3 || got.Results[0].Error != "" {
		t.Fatalf("result 0: %+v", got.Results[0])
	}
	if got.Results[1].Error == "" {
		t.Fatal("unknown vertex must error per-query")
	}
	if got.Results[2].Error == "" {
		t.Fatal("bad k must error per-query")
	}
	if len(got.Results[3].Neighbors) != 2 {
		t.Fatalf("result 3: %+v", got.Results[3])
	}
	if code := postJSON(t, ts.URL+"/v1/batch", `{"queries":[]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/batch", `garbage`, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d", code)
	}
	huge := `{"queries":[` + strings.Repeat(`{"vertex":0},`, MaxBatch) + `{"vertex":0}]}`
	if code := postJSON(t, ts.URL+"/v1/batch", huge, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", code)
	}
}

func TestQueryBeforePublishIs503(t *testing.T) {
	store := NewStore()
	ts := httptest.NewServer(New(store).Handler())
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/v1/neighbors?vertex=0&k=3", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("neighbors: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/embedding/0", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("embedding: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/batch", `{"queries":[{"vertex":0}]}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("batch: status %d", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 20, 4)
	for i := 0; i < 5; i++ {
		getJSON(t, fmt.Sprintf("%s/v1/neighbors?vertex=%d&k=3", ts.URL, i), nil)
	}
	getJSON(t, ts.URL+"/v1/neighbors?vertex=999", nil) // one error
	getJSON(t, ts.URL+"/healthz", nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`lightne_requests_total{endpoint="neighbors"} 6`,
		`lightne_request_errors_total{endpoint="neighbors"} 1`,
		`lightne_requests_total{endpoint="healthz"} 1`,
		`lightne_request_latency_seconds{endpoint="neighbors",quantile="0.5"}`,
		`lightne_request_latency_seconds{endpoint="neighbors",quantile="0.99"}`,
		`lightne_snapshot_version 1`,
		`lightne_snapshot_vertices 20`,
		`lightne_uptime_seconds`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
}

func TestInt8Index(t *testing.T) {
	x := clusteredEmbedding(16, 4)
	ix, err := NewIndex(x, "int8")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Rows() != 16 || ix.Dims() != 4 {
		t.Fatalf("shape %dx%d", ix.Rows(), ix.Dims())
	}
	idx, _, err := ix.TopK(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range idx {
		if v >= 8 {
			t.Fatalf("cross-cluster neighbor %d from int8 index", v)
		}
	}
	vec := ix.Vector(3)
	if len(vec) != 4 || vec[0] < 9.9 || vec[0] > 10.1 {
		t.Fatalf("dequantized vector %v", vec)
	}
	if _, err := NewIndex(x, "float16"); err == nil {
		t.Fatal("expected unknown-precision error")
	}
}

// TestConcurrentQueriesDuringHotSwap hammers the query path while a
// publisher goroutine swaps snapshots of different sizes. Under -race this
// verifies the read path needs no locking; functionally it verifies every
// response is internally consistent (all results within one snapshot's
// vertex range).
func TestConcurrentQueriesDuringHotSwap(t *testing.T) {
	sizes := []int{20, 40, 60}
	indexes := make([]Index, len(sizes))
	for i, n := range sizes {
		ix, err := NewIndex(clusteredEmbedding(n, 4), "float32")
		if err != nil {
			t.Fatal(err)
		}
		indexes[i] = ix
	}
	store := NewStore()
	store.Publish(indexes[0], 0)
	ts := httptest.NewServer(New(store).Handler())
	defer ts.Close()

	const swaps = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= swaps; i++ {
			store.Publish(indexes[i%len(indexes)], float64(i)/swaps)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var got NeighborsResponse
				// Vertex 5 exists in every snapshot size.
				resp, err := http.Get(ts.URL + "/v1/neighbors?vertex=5&k=8")
				if err != nil {
					errCh <- err
					return
				}
				code := resp.StatusCode
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("worker %d: status %d", worker, code)
					return
				}
				if len(got.Neighbors) != 8 {
					errCh <- fmt.Errorf("worker %d: %d neighbors", worker, len(got.Neighbors))
					return
				}
				if got.SnapshotVersion == 0 || got.SnapshotVersion > swaps+1 {
					errCh <- fmt.Errorf("worker %d: version %d", worker, got.SnapshotVersion)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if v := store.Snapshot().Version; v != swaps+1 {
		t.Fatalf("final version %d, want %d", v, swaps+1)
	}
}

func TestIngesterPublishesSnapshots(t *testing.T) {
	// Ring graph: enough structure for the pipeline at tiny scale.
	var arcs []graph.Edge
	const n = 24
	for i := 0; i < n; i++ {
		arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32((i + 1) % n)})
		arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32((i + 2) % n)})
	}
	g, err := graph.FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(4)
	cfg.T = 3
	cfg.Seed = 7
	emb, err := dynamic.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	ing := NewIngester(emb, store, IngestConfig{MaxStaleness: 0.5})
	if err := ing.PublishNow(); err != nil {
		t.Fatal(err)
	}
	snap := store.Snapshot()
	if snap == nil || snap.Version != 1 || snap.Index.Rows() != n {
		t.Fatalf("initial snapshot %+v", snap)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- ing.Run(ctx) }()

	// Grow the graph: new vertices n and n+1 attach to the ring.
	batch := []graph.Edge{{U: 0, V: n}, {U: n, V: 1}, {U: 2, V: n + 1}, {U: n + 1, V: 3}}
	if err := ing.Submit(ctx, batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for store.Snapshot().Version < 2 {
		select {
		case <-deadline:
			t.Fatal("timed out waiting for ingested snapshot")
		case err := <-runErr:
			t.Fatalf("ingester stopped: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	snap = store.Snapshot()
	if snap.Index.Rows() != n+2 {
		t.Fatalf("post-ingest snapshot has %d rows, want %d", snap.Index.Rows(), n+2)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v on cancellation", err)
	}
	if ing.Published() < 2 {
		t.Fatalf("published %d snapshots", ing.Published())
	}
}

func TestGracefulShutdown(t *testing.T) {
	ix, err := NewIndex(clusteredEmbedding(10, 4), "")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	store.Publish(ix, 0)
	srv := New(store)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	ln := newLocalListener(t)
	go func() { errc <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz %d", code)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h latencyHist
	for i := 0; i < 90; i++ {
		h.observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(50 * time.Millisecond)
	}
	p50 := h.quantile(0.5)
	if p50 < 64*time.Microsecond || p50 > 256*time.Microsecond {
		t.Fatalf("p50 %v", p50)
	}
	p99 := h.quantile(0.99)
	if p99 < 32*time.Millisecond || p99 > 128*time.Millisecond {
		t.Fatalf("p99 %v", p99)
	}
	if h.quantile(0.5) < h.quantile(0.1) {
		t.Fatal("quantiles not monotone")
	}
	var empty latencyHist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Fatal("empty histogram must report zero")
	}
}

// annTestSnapshot publishes a snapshot carrying an IVF index over the
// standard two-cluster embedding (MinRows 1 forces indexing at test scale).
func annTestSnapshot(t *testing.T, store *Store, n, d int) *Snapshot {
	t.Helper()
	ix, err := NewIndex(clusteredEmbedding(n, d), "float32")
	if err != nil {
		t.Fatal(err)
	}
	ivf, err := BuildANN(ix, ann.Config{Enabled: true, MinRows: 1, NList: 16, NProbe: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ivf == nil {
		t.Fatal("BuildANN returned no index with Enabled and MinRows 1")
	}
	return store.PublishWithANN(ix, ivf, 0)
}

// TestANNServing runs the HTTP query path against an ANN-carrying snapshot:
// results stay within the query's cluster, health reports the index
// geometry, and the metrics show the ANN path answering with a sub-linear
// scan count.
func TestANNServing(t *testing.T) {
	const n, d = 2000, 8
	store := NewStore()
	annTestSnapshot(t, store, n, d)
	srv := New(store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var got NeighborsResponse
	if code := getJSON(t, ts.URL+"/v1/neighbors?vertex=0&k=5", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Neighbors) != 5 {
		t.Fatalf("%d neighbors", len(got.Neighbors))
	}
	for _, nb := range got.Neighbors {
		if nb.Vertex >= n/2 {
			t.Fatalf("cross-cluster neighbor %d from ANN path", nb.Vertex)
		}
	}
	var batch BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", `{"queries":[{"vertex":1,"k":4},{"vertex":1500,"k":4}]}`, &batch); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	for _, nb := range batch.Results[1].Neighbors {
		if nb.Vertex < n/2 {
			t.Fatalf("cross-cluster neighbor %d for second-cluster query", nb.Vertex)
		}
	}

	var h HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz %d", code)
	}
	if !h.ANN || h.ANNNList != 16 || h.ANNNProbe != 8 {
		t.Fatalf("health ANN fields %+v", h)
	}

	if q := srv.Metrics().ANNQueries(); q != 3 {
		t.Fatalf("ANN answered %d of 3 queries", q)
	}
	if s := srv.Metrics().ScannedRows(); s <= 0 || s >= 3*int64(n-1) {
		t.Fatalf("scanned %d rows over 3 ANN queries", s)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lightne_snapshot_ann 1",
		"lightne_ann_nlist 16",
		"lightne_ann_queries_total 3",
		"lightne_exact_queries_total 0",
		"lightne_scanned_rows_total",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestSearchFallsBackToExact pins the quality floor: when the probe cannot
// produce k results (k larger than the probed lists' population), Search
// answers from the exact scan instead of returning a short list.
func TestSearchFallsBackToExact(t *testing.T) {
	const n = 40
	ix, err := NewIndex(clusteredEmbedding(n, 4), "float32")
	if err != nil {
		t.Fatal(err)
	}
	ivf, err := BuildANN(ix, ann.Config{Enabled: true, MinRows: 1, NList: 8, NProbe: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := NewStore().PublishWithANN(ix, ivf, 0)
	ids, _, scanned, approx, err := snap.Search(0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 25 {
		t.Fatalf("fallback returned %d results, want 25", len(ids))
	}
	if approx {
		t.Fatal("short probe must be answered by the exact path")
	}
	if scanned != n-1 {
		t.Fatalf("exact fallback scanned %d, want %d", scanned, n-1)
	}
	// A small k the probe can satisfy stays on the ANN path.
	if _, _, _, approx, err := snap.Search(0, 2); err != nil || !approx {
		t.Fatalf("small-k query: approx=%v err=%v", approx, err)
	}
}

// TestBuildANNGates checks the serving-layer gates: disabled configs and
// sub-MinRows snapshots publish without an index.
func TestBuildANNGates(t *testing.T) {
	ix, err := NewIndex(clusteredEmbedding(100, 4), "int8")
	if err != nil {
		t.Fatal(err)
	}
	if ivf, err := BuildANN(ix, ann.Config{}); err != nil || ivf != nil {
		t.Fatalf("disabled: ivf=%v err=%v", ivf, err)
	}
	if ivf, err := BuildANN(ix, ann.Config{Enabled: true}); err != nil || ivf != nil {
		t.Fatalf("below default MinRows: ivf=%v err=%v", ivf, err)
	}
	ivf, err := BuildANN(ix, ann.Config{Enabled: true, MinRows: 1, NList: 4})
	if err != nil || ivf == nil {
		t.Fatalf("forced build: ivf=%v err=%v", ivf, err)
	}
	if ivf.Rows() != 100 {
		t.Fatalf("index rows %d", ivf.Rows())
	}
}

// TestIngesterPublishesANNSnapshots verifies the publish path builds the
// index when configured: every snapshot the ingester lands carries one.
func TestIngesterPublishesANNSnapshots(t *testing.T) {
	var arcs []graph.Edge
	const n = 24
	for i := 0; i < n; i++ {
		arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32((i + 1) % n)})
		arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32((i + 2) % n)})
	}
	g, err := graph.FromEdges(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(4)
	cfg.T = 3
	cfg.Seed = 7
	emb, err := dynamic.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	ing := NewIngester(emb, store, IngestConfig{
		ANN: ann.Config{Enabled: true, MinRows: 1, NList: 4, Seed: 1},
	})
	if err := ing.PublishNow(); err != nil {
		t.Fatal(err)
	}
	snap := store.Snapshot()
	if snap.ANN == nil {
		t.Fatal("published snapshot has no ANN index")
	}
	if snap.ANN.Rows() != snap.Index.Rows() {
		t.Fatalf("index over %d rows, embedding has %d", snap.ANN.Rows(), snap.Index.Rows())
	}
	ids, _, _, _, err := snap.Search(0, 3)
	if err != nil || len(ids) != 3 {
		t.Fatalf("search on ingested snapshot: ids=%v err=%v", ids, err)
	}
}

// TestConcurrentQueriesDuringANNRebuildSwap is the ISSUE's rebuild/swap
// race check: publisher goroutines repeatedly rebuild IVF indexes and swap
// them in (alternating with exact-only snapshots) while query workers
// hammer the HTTP path. Under -race this proves the index build and the
// atomic pair-swap introduce no shared mutable state into the read path.
func TestConcurrentQueriesDuringANNRebuildSwap(t *testing.T) {
	const n, d = 500, 8
	ix, err := NewIndex(clusteredEmbedding(n, d), "float32")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	store.Publish(ix, 0)
	ts := httptest.NewServer(New(store).Handler())
	defer ts.Close()

	const swaps = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= swaps; i++ {
			if i%2 == 0 {
				store.Publish(ix, 0) // exact-only generation
				continue
			}
			ivf, err := BuildANN(ix, ann.Config{Enabled: true, MinRows: 1, NList: 8, NProbe: 4, Seed: uint64(i)})
			if err != nil || ivf == nil {
				t.Errorf("rebuild %d: ivf=%v err=%v", i, ivf, err)
				return
			}
			store.PublishWithANN(ix, ivf, 0)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var got NeighborsResponse
				resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/neighbors?vertex=%d&k=5", i%n))
				if err != nil {
					errCh <- err
					return
				}
				code := resp.StatusCode
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || code != http.StatusOK {
					errCh <- fmt.Errorf("worker %d: status %d err %v", worker, code, err)
					return
				}
				if len(got.Neighbors) != 5 {
					errCh <- fmt.Errorf("worker %d: %d neighbors", worker, len(got.Neighbors))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if v := store.Snapshot().Version; v != swaps+1 {
		t.Fatalf("final version %d, want %d", v, swaps+1)
	}
}
