// Dynamic embedding workflow (the paper's §6 future-work setting, and its
// §1 motivation: Alibaba/LinkedIn graphs that must be re-embedded as edges
// stream in). The example holds back 30% of a community graph's edges,
// embeds the rest, then delivers the held-back edges in batches — sampling
// only each batch — and tracks classification quality and staleness after
// every batch, finishing with a full refresh.
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"
	"time"

	"lightne"
)

func main() {
	ds, err := lightne.GenerateDataset("friendster-small-like", 31)
	if err != nil {
		log.Fatal(err)
	}
	full, labels := ds.Graph, ds.Labels

	// Split edges: 70% initial, 30% streaming in 3 batches.
	all := full.Edges()
	cut := len(all) * 7 / 10
	initial, err := lightne.NewGraph(full.NumVertices(), all[:cut])
	if err != nil {
		log.Fatal(err)
	}

	cfg := lightne.DefaultConfig(32)
	cfg.T = 5
	cfg.SampleMultiple = 3
	cfg.Seed = 7
	t0 := time.Now()
	emb, err := lightne.NewDynamicEmbedder(initial, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial graph: %d edges, full sampling pass %v\n",
		emb.NumEdges(), time.Since(t0).Round(time.Millisecond))

	report := func(stage string) {
		x, err := emb.Embed()
		if err != nil {
			log.Fatal(err)
		}
		cr, err := lightne.NodeClassification(x, labels.Of, labels.NumClasses,
			0.1, 3, lightne.DefaultTrainConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s edges=%-6d staleness=%.2f Micro-F1=%.2f%%\n",
			stage, emb.NumEdges(), emb.Staleness(), 100*cr.MicroF1)
	}
	report("after initial embed")

	stream := all[cut:]
	third := len(stream) / 3
	for i := 0; i < 3; i++ {
		lo, hi := i*third, (i+1)*third
		if i == 2 {
			hi = len(stream)
		}
		t0 = time.Now()
		if err := emb.AddEdges(stream[lo:hi]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d: +%d edges sampled in %v\n",
			i+1, hi-lo, time.Since(t0).Round(time.Millisecond))
		report(fmt.Sprintf("after batch %d", i+1))
	}

	t0 = time.Now()
	if err := emb.Refresh(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full refresh in %v\n", time.Since(t0).Round(time.Millisecond))
	report("after refresh")
}
