package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadEdgeList checks the streamed parser against the serial oracle,
// unweighted and weighted (arcs, vertex count, accept/reject, the line an
// error names), with one-megabyte blocks and with 13-byte ones, and that
// any graph LoadEdgeList accepts is internally consistent.
func FuzzLoadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5 5\n")
	f.Add("")
	f.Add("0 1 extra fields\n")
	f.Add("4294967295 0\n")
	f.Add("-1 2\n")
	f.Add("0\t1\r\n")
	f.Add("0 1 2.5\n1 2\n2 0 0.25")
	f.Add("0 1 1e-3\r\n% weighted\n1 2 inf\n")
	f.Add("0 1 x\n")
	f.Add("0 1 -2\n1 0 0x1p-2\n")
	f.Add("0\u00a01 3\u20037\n")
	f.Fuzz(func(t *testing.T, input string) {
		defer func(b int) { blockBytes = b }(blockBytes)
		for _, block := range []int{1 << 20, 13} {
			blockBytes = block
			checkParser(t, input, 0)
		}
		g, err := LoadEdgeList(strings.NewReader(input), 0)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
	})
}

// FuzzReadBinary asserts the binary loader rejects corrupt input without
// panicking and that accepted graphs are consistent.
func FuzzReadBinary(f *testing.F) {
	// Seed with a valid serialization.
	g, err := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// And a valid LNGC (compressed) serialization.
	cg, err := g.ToCompressed(2)
	if err != nil {
		f.Fatal(err)
	}
	var cbuf bytes.Buffer
	if err := cg.WriteBinary(&cbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(cbuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("LNG1garbage"))
	f.Add([]byte("LNGCgarbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			// Binary graphs are trusted CSR: out-of-range neighbors pass
			// loading but must be caught by Validate — both outcomes are
			// acceptable, a panic is not.
			t.Logf("loaded graph fails validation (acceptable): %v", err)
		}
	})
}
