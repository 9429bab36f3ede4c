package lightne_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"lightne"
	"lightne/internal/gen"
)

// TestCLIOutputGolden pins the bytes cmd/lightne -binary writes for the RMAT
// scale-12 edge list (edge factor 20, seed 1) under three configurations:
// the default path (per-arc sampler, rSVD, propagation), the batched sharded
// sampler, and the sketch without propagation. It makes the calls
// cmd/lightne makes at its flag defaults (text load, -seed 1, Embed, the
// binary artifact writer) and compares the artifact's sha256. Each
// configuration runs twice: on the graph loaded from text, and on the same
// graph written as LNGC and memory-mapped (cmd/lightne -mmap), whose
// compressed adjacency every pass must read as the same neighbors in the
// same order, so both legs pin one hash. Every performance change must
// leave these hashes alone; one that moves a hash says why and re-records
// it. `make determinism` runs it at GOMAXPROCS 1 and at the core count. See
// DESIGN.md "Numerics".
func TestCLIOutputGolden(t *testing.T) {
	g0, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := g0.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	loadText := func() (*lightne.Graph, error) {
		return lightne.LoadGraphWithOptions(bytes.NewReader(text.Bytes()), 0, lightne.DefaultGraphOptions())
	}
	// The LNGC file holds the graph the text load builds (4 083 vertices: the
	// edge list does not name RMAT's isolated tail).
	gt, err := loadText()
	if err != nil {
		t.Fatal(err)
	}
	lngc := filepath.Join(t.TempDir(), "rmat12.lngc")
	if err := writeLNGC(gt, lngc); err != nil {
		t.Fatal(err)
	}
	loads := []struct {
		name string
		load func() (*lightne.Graph, error)
	}{
		{"text", loadText},
		{"mmap", func() (*lightne.Graph, error) { return lightne.MmapGraph(lngc) }},
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
		for _, ld := range loads {
			g, err := ld.load()
			if err != nil {
				t.Fatal(err)
			}
			cfg := lightne.DefaultConfig(tc.dim)
			cfg.Seed = 1
			tc.set(&cfg)
			res, err := lightne.Embed(g, cfg)
			if err != nil {
				t.Fatalf("%s (%s): %v", tc.flags, ld.name, err)
			}
			h := sha256.New()
			if err := lightne.WriteEmbeddingBinary(h, res.Embedding); err != nil {
				t.Fatal(err)
			}
			if err := g.Munmap(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("lightne %s (%s input): artifact sha256 %s, golden %s", tc.flags, ld.name, got, tc.want)
			}
		}
	}
}

// writeLNGC writes g compressed at the default block size to path, the
// file lightne-gen -binary -compress writes for lightne -mmap.
func writeLNGC(g *lightne.Graph, path string) error {
	c, err := lightne.CompressGraph(g, 0)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
