package lightne_test

import (
	"fmt"
	"log"

	"lightne"
)

// ExampleEmbed demonstrates the minimal embedding pipeline: construct a
// graph, run LightNE, inspect the result's shape and diagnostics.
func ExampleEmbed() {
	arcs := []lightne.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle
		{U: 2, V: 3},                             // bridge
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}, // triangle
	}
	g, err := lightne.NewGraph(6, arcs)
	if err != nil {
		log.Fatal(err)
	}
	cfg := lightne.DefaultConfig(4)
	cfg.T = 3
	cfg.Seed = 1
	res, err := lightne.Embed(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("embedding: %d vertices x %d dims\n", res.Embedding.Rows, res.Embedding.Cols)
	fmt.Printf("stages: sparsifier, rSVD, propagation all ran: %v\n",
		res.Timing.Sparsifier >= 0 && res.Timing.SVD > 0 && res.Timing.Propagation > 0)
	// Output:
	// embedding: 6 vertices x 4 dims
	// stages: sparsifier, rSVD, propagation all ran: true
}

// ExampleNodeClassification evaluates an embedding on a labeled replica.
func ExampleNodeClassification() {
	ds, err := lightne.GenerateDataset("blogcatalog-like", 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := lightne.SmallConfig(16)
	cfg.T = 5
	res, err := lightne.Embed(ds.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cr, err := lightne.NodeClassification(res.Embedding, ds.Labels.Of,
		ds.Labels.NumClasses, 0.5, 3, lightne.DefaultTrainConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluated on %d held-out vertices; F1 well above the %.0f%% chance level: %v\n",
		cr.TestSize, 100.0/float64(ds.Labels.NumClasses), cr.MicroF1 > 2.0/float64(ds.Labels.NumClasses))
	// Output:
	// evaluated on 1000 held-out vertices; F1 well above the 8% chance level: true
}
