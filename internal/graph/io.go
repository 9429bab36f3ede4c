package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

	"lightne/internal/par"
)

// Edge-list text, read by LoadEdgeList and LoadWeightedEdgeList:
//   - fields are separated by whitespace (as strings.Fields splits them);
//   - the first two fields are whole decimal uint32s, no sign, no trailing
//     bytes: the arc's source and target;
//   - a line whose first field starts with '#' or '%' is a comment; blank
//     lines and CRLF line ends are fine;
//   - further fields are ignored, except that the weighted form reads a
//     third one as a float64 weight (1 when it is missing);
//   - a line of maxLine bytes or more is an error, as bufio.Scanner made it,
//     so hostile input cannot make one line hold the whole file.
//
// The reader streams: it reads blockBytes at a time, cuts the block after
// its last newline, splits it at newlines into one piece per worker, parses
// the pieces in parallel and appends their arcs in input order. Resident
// memory is one block plus the arcs.

const maxLine = 1 << 20

// blockBytes is the read size. It is a variable only so tests can shrink it
// until lines straddle blocks.
var blockBytes = 1 << 20

// LoadEdgeList parses an edge list ("u v" per line) and builds the graph
// FromEdges builds from its arcs. If n <= 0, the vertex count is inferred
// as max ID + 1.
func LoadEdgeList(r io.Reader, n int) (*Graph, error) {
	arcs, n, err := readArcs(r, n, edgeArc)
	if err != nil {
		return nil, err
	}
	return FromEdges(n, arcs)
}

// LoadWeightedEdgeList parses "u v w" lines (a missing w means weight 1) and
// builds the graph FromWeightedEdges builds from them. If n <= 0, the
// vertex count is inferred.
func LoadWeightedEdgeList(r io.Reader, n int) (*Graph, error) {
	arcs, n, err := readArcs(r, n, weightedArc)
	if err != nil {
		return nil, err
	}
	return FromWeightedEdges(n, arcs)
}

func edgeArc(u, v uint32, _ []byte) (Edge, error) { return Edge{u, v}, nil }

func weightedArc(u, v uint32, rest []byte) (WeightedEdge, error) {
	w, err := 1.0, error(nil)
	if f, _ := nextField(rest); len(f) > 0 {
		if w, err = strconv.ParseFloat(string(f), 64); err != nil {
			err = fmt.Errorf("bad weight: %w", err)
		}
	}
	return WeightedEdge{u, v, w}, err
}

// readArcs reads r to the end and returns its arcs in input order, built by
// arc from each edge line's two IDs and the rest of the line, together with
// n, or the inferred vertex count when n <= 0.
func readArcs[A any](r io.Reader, n int, arc func(u, v uint32, rest []byte) (A, error)) ([]A, int, error) {
	var arcs []A
	maxID := int64(-1)
	pieces := make([]piece[A], par.Workers())
	buf := make([]byte, 0, min(blockBytes, maxLine))
	line := 0 // lines before buf
	for {
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		eof := err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !eof {
			return nil, 0, fmt.Errorf("graph: reading edge list: %w", err)
		}
		cut := bytes.LastIndexByte(buf, '\n') + 1
		switch {
		case eof:
			cut = len(buf)
		case cut == 0: // one line fills buf
			if len(buf) >= maxLine {
				return nil, 0, fmt.Errorf("graph: line %d: longer than %d bytes", line+1, maxLine-1)
			}
			buf = append(make([]byte, 0, min(2*cap(buf), maxLine)), buf...)
			continue
		}
		block := buf[:cut]
		par.For(len(pieces), 1, func(p int) {
			lo, hi := len(block)*p/len(pieces), len(block)*(p+1)/len(pieces)
			pieces[p] = parsePiece(block[cutAt(block, lo):cutAt(block, hi)], pieces[p].arcs[:0], arc)
		})
		for _, p := range pieces {
			if p.err != nil {
				return nil, 0, fmt.Errorf("graph: line %d: %w", line+p.lines, p.err)
			}
			arcs = append(arcs, p.arcs...)
			maxID = max(maxID, p.maxID)
			line += p.lines
		}
		if eof {
			break
		}
		buf = buf[:copy(buf, buf[cut:])]
	}
	if n > 0 {
		return arcs, n, nil
	}
	n, err := inferVertexCount(maxID, len(arcs))
	return arcs, n, err
}

// cutAt returns where the piece boundary nearest b[i] falls: just past the
// first newline at or after i, so that each line is in one piece.
func cutAt(b []byte, i int) int {
	if i == 0 {
		return 0
	}
	if j := bytes.IndexByte(b[i:], '\n'); j >= 0 {
		return i + j + 1
	}
	return len(b)
}

// piece is one worker's share of a block: its arcs, their largest ID, and
// the lines it read, up to and including the first bad one, whose error
// (without the line number) is err.
type piece[A any] struct {
	arcs  []A
	maxID int64
	lines int
	err   error
}

// parsePiece parses b, whole lines, appending to arcs.
func parsePiece[A any](b []byte, arcs []A, arc func(u, v uint32, rest []byte) (A, error)) piece[A] {
	maxID, lines := int64(-1), 0
	var err error
	for len(b) > 0 && err == nil {
		var ln []byte
		ln, b, _ = bytes.Cut(b, newline)
		lines++
		f0, rest := nextField(ln)
		if len(f0) == 0 || f0[0] == '#' || f0[0] == '%' {
			continue
		}
		f1, rest := nextField(rest)
		u, okU := parseUint32(f0)
		v, okV := parseUint32(f1)
		var a A
		switch {
		case len(f1) == 0:
			err = fmt.Errorf("expected at least two fields, got %q", bytes.TrimSpace(ln))
		case !okU:
			err = fmt.Errorf("bad source %q", f0)
		case !okV:
			err = fmt.Errorf("bad target %q", f1)
		default:
			if a, err = arc(u, v, rest); err == nil {
				arcs = append(arcs, a)
				maxID = max(maxID, int64(u), int64(v))
			}
		}
	}
	return piece[A]{arcs, maxID, lines, err}
}

var newline = []byte{'\n'}

// nextField returns the first whitespace-separated field of b and what
// follows it.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for w := 1; i < len(b) && w > 0; i += w {
		w = spaceAt(b[i:])
	}
	j := i
	for j < len(b) && spaceAt(b[j:]) == 0 {
		j++
	}
	return b[i:j], b[j:]
}

// spaceAt returns the byte width of the whitespace rune b starts with, or 0
// if it starts with something else: unicode.IsSpace, as strings.Fields.
func spaceAt(b []byte) int {
	if c := b[0]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return wideSpaceAt(b)
}

// wideSpaceAt is spaceAt past ASCII, apart so that spaceAt inlines.
func wideSpaceAt(b []byte) int {
	if r, w := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return w
	}
	return 0
}

var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// parseUint32 parses a whole unsigned decimal uint32, as
// strconv.ParseUint(f, 10, 32) does.
func parseUint32(f []byte) (uint32, bool) {
	var v uint64
	for _, c := range f {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v = v*10 + uint64(c-'0'); v > math.MaxUint32 {
			return 0, false
		}
	}
	return uint32(v), len(f) > 0
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

// WriteEdgeList writes each directed arc as a "u v" line, so both
// directions of every edge; LoadEdgeList recovers the identical Simple
// graph. Lines are formatted into
// one reused buffer, the "u " prefix once per vertex.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf [24]byte // fits "4294967295 4294967295\n"
	c := g.NewNeighborCursor()
	for u := 0; u < g.n; u++ {
		head := append(strconv.AppendUint(buf[:0], uint64(u), 10), ' ')
		for _, v := range c.List(uint32(u)) {
			line := append(strconv.AppendUint(head, uint64(v), 10), '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
