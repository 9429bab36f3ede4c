// Serving workflow (the paper's §1 motivation: embeddings "easily consumed
// in downstream machine learning and recommendation algorithms"): embed a
// community graph, publish it to the serving subsystem, and exercise the
// real HTTP API end to end — neighbor queries, a hot snapshot swap fed by
// the dynamic-update layer, batched queries, and the metrics the server
// collected about all of it.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"

	"lightne"
	"lightne/internal/serve"
)

func main() {
	// 1. Train: embed a synthetic community graph.
	ds, err := lightne.GenerateDataset("blogcatalog-like", 5)
	if err != nil {
		log.Fatal(err)
	}
	cfg := lightne.DefaultConfig(32)
	cfg.SampleMultiple = 5
	cfg.Seed = 5
	emb, err := lightne.NewDynamicEmbedder(ds.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Publish: quantize to float32 and install as snapshot v1. The
	// ingester bridges the dynamic embedder and the store.
	store := serve.NewStore()
	ing := serve.NewIngester(emb, store, serve.IngestConfig{MaxStaleness: 0.3})
	if err := ing.PublishNow(); err != nil {
		log.Fatal(err)
	}
	snap := store.Snapshot()
	fmt.Printf("published snapshot v%d: %d vertices x %d dims (%.1f MB float32 index)\n",
		snap.Version, snap.Index.Rows(), snap.Index.Dims(), float64(snap.Index.MemoryBytes())/1e6)

	// 3. Serve: real HTTP server on a loopback port.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.New(store)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	go func() { _ = ing.Run(ctx) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", base)

	// 4. Query over HTTP, as a downstream recommender would.
	var nbrs serve.NeighborsResponse
	mustGet(base+"/v1/neighbors?vertex=100&k=5", &nbrs)
	fmt.Println("top-5 neighbors of vertex 100:")
	for _, nb := range nbrs.Neighbors {
		fmt.Printf("  vertex %4d  cosine %.3f\n", nb.Vertex, nb.Score)
	}

	// 5. Hot swap: stream an edge batch through the dynamic layer; the
	// refreshed embedding publishes atomically while queries continue.
	n := uint32(ds.Graph.NumVertices())
	batch := []lightne.Edge{{U: 100, V: n}, {U: n, V: 101}, {U: n, V: 102}}
	if err := ing.Submit(ctx, batch); err != nil {
		log.Fatal(err)
	}
	var health serve.HealthResponse
	for health.SnapshotVersion < 2 {
		mustGet(base+"/healthz", &health)
	}
	fmt.Printf("hot-swapped to snapshot v%d after edge batch (staleness %.3f, %d vertices)\n",
		health.SnapshotVersion, health.Staleness, health.Vertices)
	mustGet(base+fmt.Sprintf("/v1/neighbors?vertex=%d&k=3", n), &nbrs)
	fmt.Printf("new vertex %d's neighbors: ", n)
	for _, nb := range nbrs.Neighbors {
		fmt.Printf("%d ", nb.Vertex)
	}
	fmt.Println()

	// 6. Traffic: a few single and batched neighbor queries for the
	// metrics below to count.
	for v := 0; v < 8; v++ {
		mustGet(base+fmt.Sprintf("/v1/neighbors?vertex=%d&k=10", v), &nbrs)
	}
	var batchResp serve.BatchResponse
	mustPost(base+"/v1/batch", serve.BatchRequest{Queries: []serve.NeighborsRequest{{Vertex: 1}, {Vertex: 2}, {Vertex: int(n)}}}, &batchResp)
	fmt.Printf("batch of %d queries answered from snapshot v%d\n", len(batchResp.Results), batchResp.SnapshotVersion)

	// 7. Observability: what the server recorded about all of the above.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("server metrics:\n%s", metrics)

	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
}

func mustGet(url string, out any) {
	resp, err := http.Get(url)
	mustDecode(url, resp, err, out)
}

func mustPost(url string, in, out any) {
	body, err := json.Marshal(in)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	mustDecode(url, resp, err, out)
}

func mustDecode(url string, resp *http.Response, err error, out any) {
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("decoding %s: %v", url, err)
	}
}
