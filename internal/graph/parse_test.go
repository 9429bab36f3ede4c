package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lightne/internal/rng"
)

// edgeListOracle is the serial bufio.Scanner + strings.Fields parser the
// streamed one replaced, kept as the reference for its grammar: the arcs in
// input order and the vertex count (n, or the inferred one when n <= 0).
func edgeListOracle(r io.Reader, n int) ([]Edge, int, error) {
	var arcs []Edge
	maxID := int64(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graph: line %d: expected at least two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		if int64(u) > maxID {
			maxID = int64(u)
		}
		if int64(v) > maxID {
			maxID = int64(v)
		}
		arcs = append(arcs, Edge{uint32(u), uint32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if n <= 0 {
		var err error
		n, err = inferVertexCount(maxID, len(arcs))
		if err != nil {
			return nil, 0, err
		}
	}
	return arcs, n, nil
}

// weightedEdgeListOracle is the serial parser's weighted copy.
func weightedEdgeListOracle(r io.Reader, n int) ([]WeightedEdge, int, error) {
	var arcs []WeightedEdge
	maxID := int64(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("graph: line %d: expected at least two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
		}
		if int64(u) > maxID {
			maxID = int64(u)
		}
		if int64(v) > maxID {
			maxID = int64(v)
		}
		arcs = append(arcs, WeightedEdge{U: uint32(u), V: uint32(v), W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("graph: reading weighted edge list: %w", err)
	}
	if n <= 0 {
		var err error
		n, err = inferVertexCount(maxID, len(arcs))
		if err != nil {
			return nil, 0, err
		}
	}
	return arcs, n, nil
}

var lineRE = regexp.MustCompile(`line (\d+)`)

// checkParser runs input through readArcs, unweighted and weighted, and
// fails unless each agrees with its oracle: the same arcs (weights
// bitwise), the same vertex count, the same accept/reject, and for a
// rejected line the same "line N". It returns the number of arcs the
// unweighted form accepted, -1 if it rejected the input.
func checkParser(t testing.TB, input string, n int) int {
	t.Helper()
	arcs, gotN, err := readArcs(strings.NewReader(input), n, edgeArc)
	wantArcs, wantN, wantErr := edgeListOracle(strings.NewReader(input), n)
	compareParse(t, "unweighted", input, len(arcs), gotN, err, len(wantArcs), wantN, wantErr)
	for i := range wantArcs {
		if err == nil && arcs[i] != wantArcs[i] {
			t.Fatalf("input %.80q: arc %d is %v, oracle %v", input, i, arcs[i], wantArcs[i])
		}
	}
	warcs, wgotN, werr := readArcs(strings.NewReader(input), n, weightedArc)
	wwant, wwantN, wwantErr := weightedEdgeListOracle(strings.NewReader(input), n)
	compareParse(t, "weighted", input, len(warcs), wgotN, werr, len(wwant), wwantN, wwantErr)
	for i := range wwant {
		a, b := warcs[i], wwant[i]
		if werr == nil && (a.U != b.U || a.V != b.V || math.Float64bits(a.W) != math.Float64bits(b.W)) {
			t.Fatalf("input %.80q: weighted arc %d is %v, oracle %v", input, i, a, b)
		}
	}
	if err != nil {
		return -1
	}
	return len(arcs)
}

func compareParse(t testing.TB, form, input string, m, n int, err error, wantM, wantN int, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s input %.80q: error %v, oracle %v", form, input, err, wantErr)
	}
	if err != nil {
		// The Scanner's bound error names no line; ours does.
		got, want := lineRE.FindString(err.Error()), lineRE.FindString(wantErr.Error())
		if got != want && !(errors.Is(wantErr, bufio.ErrTooLong) && got != "") {
			t.Fatalf("%s input %.80q: error %q, oracle %q", form, input, err, wantErr)
		}
		return
	}
	if m != wantM || n != wantN {
		t.Fatalf("%s input %.80q: %d arcs over %d vertices, oracle %d over %d", form, input, m, n, wantM, wantN)
	}
}

// sweepParser calls check at GOMAXPROCS 1, 2 and 4, each with every block
// size in blocks.
func sweepParser(t *testing.T, blocks []int, check func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer func(b int) { blockBytes = b }(blockBytes)
	for _, procs := range []int{1, 2, 4} {
		for _, block := range blocks {
			runtime.GOMAXPROCS(procs)
			blockBytes = block
			t.Run(fmt.Sprintf("procs%d/block%d", procs, block), check)
		}
	}
}

// harnessEdgeText is the benchmark harness's text input: the RMAT graph
// (edge factor 20) written by WriteEdgeList.
func harnessEdgeText(t testing.TB, scale int) string {
	g, err := FromEdges(1<<scale, rmatArcs(scale, 20, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestParallelParserMatchesSequential: on the harness's RMAT-12 text and on
// a text salted with comments, blank lines and CRLF, the streamed parser
// builds the oracle's arcs at every GOMAXPROCS, with the default block and
// with 4 093-byte ones; on RMAT-12 and RMAT-13, LoadEdgeList builds the CSR
// FromEdges builds from the oracle's arcs.
func TestParallelParserMatchesSequential(t *testing.T) {
	s := rng.New(17, 0)
	var sb strings.Builder
	sb.WriteString("# header comment\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "%d %d\n", s.Intn(500), s.Intn(500))
		switch {
		case i%97 == 0:
			sb.WriteString("% interleaved comment\n")
		case i%131 == 0:
			sb.WriteString("\n")
		case i%173 == 0:
			sb.WriteString("\t3 4  1.5 extra\r\n")
		}
	}
	inputs := map[string]string{"rmat12": harnessEdgeText(t, 12), "salted": sb.String()}
	sweepParser(t, []int{1 << 20, 4093}, func(t *testing.T) {
		for name, input := range inputs {
			if checkParser(t, input, 0) < 0 {
				t.Fatalf("%s rejected", name)
			}
		}
	})
	checkCSR(t, inputs["rmat12"])
	checkCSR(t, harnessEdgeText(t, 13))
}

// checkCSR compares LoadEdgeList's offsets and edges with the graph
// FromEdges builds from the oracle's arcs.
func checkCSR(t *testing.T, input string) {
	t.Helper()
	arcs, n, err := edgeListOracle(strings.NewReader(input), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromEdges(n, arcs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadEdgeList(strings.NewReader(input), 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.edges, want.edges) {
		t.Fatal("CSR differs from the oracle's")
	}
}

// TestParallelParserEdgeCases pins the grammar line by line against the
// oracle, including what the replaced chunk-parallel parser let through
// ("0 1x", "0 1.5") and lines longer than a block and than the 1 MiB
// bound, with the default block and with blocks shrunk to 61 and 7 bytes.
func TestParallelParserEdgeCases(t *testing.T) {
	long := strings.Repeat(" ", 300) + "5 6" + strings.Repeat(" ", 300)
	cases := []struct {
		input string
		arcs  int // unweighted arcs accepted, -1 for an error
	}{
		{"", 0},
		{"0 1", 1}, // no trailing newline
		{"0 1\n1 2", 2},
		{"0 1\r\n", 1}, // CRLF
		{"  0\t1  \n", 1},
		{"0 1 extra ignored\n", 1},
		{"0 1 2.5\n1 2\n", 2},
		{"0\v1\f\n", 1},
		{"0\u00a01\u20032\n", 1}, // Unicode spaces separate fields
		{"\u3000# comment\n\u0085\n0 1\n", 1},
		{"#0 1\n%\n\n \n", 0},
		{"0 1 # trailing\n", 1},
		{"007 8\n", 1},
		{"0 4294967295\n", -1}, // an implausible inferred vertex count
		{"a b\n", -1},
		{"0\n", -1},
		{"0 1\n\n0\n", -1},
		{"99999999999 0\n", -1}, // uint32 overflow
		{"4294967296 0\n", -1},
		{"0 1x\n", -1},
		{"0 1.5\n", -1},
		{"0x 1\n", -1},
		{"-1 2\n", -1},
		{"+1 2\n", -1},
		{"0 1\n2 3 x\n", 2}, // the weighted form rejects line 2
		{"0 1 -1\n", 1},
		{"0 1 nan\n", 1},
		{"0\xa01\n", -1}, // a lone 0xA0 byte is not a space
		{long + "\n" + long, 2},
		{"0 1\n" + strings.Repeat(" ", 1<<20-4) + "0 2\n", 2},  // at the bound
		{"0 1\n" + strings.Repeat(" ", 1<<20-3) + "0 2\n", -1}, // one byte over it
		{"0 1\n" + strings.Repeat(" ", 1<<20-4) + "0 2", 2},
		{"0 1\n" + strings.Repeat(" ", 1<<20-3) + "0 2", -1},
		{"0 1\n" + strings.Repeat(" ", 3<<20) + "\n", -1},
	}
	sweepParser(t, []int{1 << 20, 61, 7}, func(t *testing.T) {
		for _, tc := range cases {
			if len(tc.input) < 1<<12 {
				checkParser(t, tc.input, 4)
			}
			if m := checkParser(t, tc.input, 0); m != tc.arcs {
				t.Fatalf("input %.80q: %d arcs, want %d", tc.input, m, tc.arcs)
			}
		}
	})
}

func TestParseUint32Field(t *testing.T) {
	for in, want := range map[string]int64{
		"42": 42, "007": 7, "0": 0, "4294967295": 4294967295,
		"": -1, "x": -1, "4294967296": -1, "99999999999999999999": -1,
		"+1": -1, "-1": -1, "1x": -1, " 1": -1, "1_0": -1,
	} {
		v, ok := parseUint32([]byte(in))
		if ok != (want >= 0) || (ok && int64(v) != want) {
			t.Fatalf("parseUint32(%q) = %d, %v; want %d", in, v, ok, want)
		}
	}
}

// BenchmarkParseEdgeList times LoadEdgeList against the oracle parser plus
// FromEdges on 200 000 random lines.
func BenchmarkParseEdgeList(b *testing.B) {
	input := syntheticEdgeText(200000)
	b.Run("parser", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			if _, err := LoadEdgeList(strings.NewReader(input), 0, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			arcs, n, err := edgeListOracle(strings.NewReader(input), 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := FromEdges(n, arcs, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func syntheticEdgeText(m int) string {
	s := rng.New(3, 0)
	var sb strings.Builder
	for i := 0; i < m; i++ {
		fmt.Fprintf(&sb, "%d %d\n", s.Intn(50000), s.Intn(50000))
	}
	return sb.String()
}
