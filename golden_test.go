package lightne_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lightne"
	"lightne/internal/gen"
)

// TestCLIOutputGolden pins the bytes cmd/lightne -binary writes for the RMAT
// scale-12 edge list (edge factor 20, seed 1) under three configurations:
// the default path (per-arc sampler, rSVD, propagation), the batched sharded
// sampler, and the sketch without propagation. It makes the calls
// cmd/lightne makes at its flag defaults (text load, -seed 1, Embed, the
// binary artifact writer) and compares the artifact's sha256. Every
// performance change must leave these hashes alone; one that moves a hash
// says why and re-records it. `make determinism` runs it at GOMAXPROCS 1 and
// at the core count.
func TestCLIOutputGolden(t *testing.T) {
	g0, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := g0.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flags string
		dim   int
		set   func(*lightne.Config)
		want  string
	}{
		{"-dim 64", 64, func(*lightne.Config) {},
			"fb8eb24da4dd464a8fc9291e03a1740bc7e99096f49f9a3d74a33bf74c5d1ffc"},
		{"-dim 64 -batched -shards 4", 64, func(c *lightne.Config) { c.BatchedWalks, c.Shards = true, 4 },
			"7b302149545e6dd5fd05e9e3834943d21a95cc3697a8c4a7003442a9d877d761"},
		{"-dim 32 -sketch -batched -shards 4 -skip-propagation", 32, func(c *lightne.Config) {
			c.StreamedSVD, c.BatchedWalks, c.Shards, c.SkipPropagation = true, true, 4, true
		}, "63508ea73fd840b185eee659900c0d85139821584d46328677ca21c5643722ff"},
	} {
		g, err := lightne.LoadGraphWithOptions(bytes.NewReader(text.Bytes()), 0, lightne.DefaultGraphOptions())
		if err != nil {
			t.Fatal(err)
		}
		cfg := lightne.DefaultConfig(tc.dim)
		cfg.Seed = 1
		tc.set(&cfg)
		res, err := lightne.Embed(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.flags, err)
		}
		h := sha256.New()
		if err := lightne.WriteEmbeddingBinary(h, res.Embedding); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("lightne %s: artifact sha256 %s, golden %s", tc.flags, got, tc.want)
		}
	}
}
