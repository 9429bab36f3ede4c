package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadEdgeList parses a whitespace-separated edge list ("u v" per line,
// comments starting with '#' or '%' ignored) and builds a graph. If n <= 0,
// the vertex count is inferred as max ID + 1.
func LoadEdgeList(r io.Reader, n int, opt Options) (*Graph, error) {
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
			return nil, fmt.Errorf("graph: line %d: expected at least two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
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
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if n <= 0 {
		var err error
		n, err = inferVertexCount(maxID, len(arcs))
		if err != nil {
			return nil, err
		}
	}
	return FromEdges(n, arcs, opt)
}

// inferVertexCount turns the maximum observed ID into a vertex count,
// rejecting ID spaces absurdly larger than the edge list: a lone line like
// "4294967295 0" would otherwise allocate gigabytes of offsets. Callers
// with genuinely sparse ID spaces should pass n explicitly.
func inferVertexCount(maxID int64, arcs int) (int, error) {
	n := maxID + 1
	limit := int64(arcs)*100 + 1024
	if n > limit {
		return 0, fmt.Errorf("graph: inferred vertex count %d is implausible for %d edges; pass the vertex count explicitly", n, arcs)
	}
	return int(n), nil
}

// LoadWeightedEdgeList parses "u v w" lines (comments with '#'/'%'
// ignored; a missing third column defaults the weight to 1) and builds a
// weighted graph. If n <= 0 the vertex count is inferred.
func LoadWeightedEdgeList(r io.Reader, n int, opt Options) (*Graph, error) {
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
			return nil, fmt.Errorf("graph: line %d: expected at least two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
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
		return nil, fmt.Errorf("graph: reading weighted edge list: %w", err)
	}
	if n <= 0 {
		var err error
		n, err = inferVertexCount(maxID, len(arcs))
		if err != nil {
			return nil, err
		}
	}
	return FromWeightedEdges(n, arcs, opt)
}

// WriteEdgeList writes each directed arc as a "u v" line. For a symmetrized
// graph this writes both directions; consumers that re-load with
// Symmetrize+Dedup recover the identical graph. Lines are formatted into
// one reused buffer, the "u " prefix once per vertex.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf [24]byte // fits "4294967295 4294967295\n"
	c := g.NewNeighborCursor()
	for u := 0; u < g.n; u++ {
		d := g.Degree(uint32(u))
		c.Begin(uint32(u), d)
		head := append(strconv.AppendUint(buf[:0], uint64(u), 10), ' ')
		for i := 0; i < d; i++ {
			line := append(strconv.AppendUint(head, uint64(c.Neighbor(i)), 10), '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
