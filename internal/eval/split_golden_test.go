package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"lightne/internal/gen"
)

// TestSplitEdgesGolden pins the held-out edges and the training CSR that
// SplitEdges draws from RMAT-12 (edge factor 20, seed 1) at test fraction
// 0.1, seed 2. The shuffle permutes the edge list in its listed order, so
// any change to that order moves these hashes (and the benchmark harness's
// split and AUC with them).
func TestSplitEdgesGolden(t *testing.T) {
	g, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := SplitEdges(g, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	th := sha256.New()
	for _, e := range test {
		th.Write(binary.LittleEndian.AppendUint64(nil, uint64(e.U)<<32|uint64(e.V)))
	}
	ch := sha256.New()
	nc := train.NewNeighborCursor()
	for u := 0; u < train.NumVertices(); u++ {
		row := nc.List(uint32(u))
		ch.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(row))))
		for _, v := range row {
			ch.Write(binary.LittleEndian.AppendUint32(nil, v))
		}
	}
	for _, c := range []struct{ name, got, want string }{
		{"test edges", hex.EncodeToString(th.Sum(nil)), "357f2427ef0094711ec339b504e4e7703455196ebf4090707362dd7b8cb9d001"},
		{"train CSR", hex.EncodeToString(ch.Sum(nil)), "13554a7377b6bdb8ba6f560946eac78f59d16bd4677ddacd345a53d146a98434"},
	} {
		if c.got != c.want {
			t.Errorf("%s: sha256 %s, golden %s", c.name, c.got, c.want)
		}
	}
}
