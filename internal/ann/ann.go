// Package ann implements sub-linear approximate nearest-neighbor search for
// the serving layer: an IVF (inverted-file) index in the FAISS/LIGHTNE 2.0
// tradition — a coarse spherical k-means quantizer over the (quantized)
// embedding rows, per-centroid posting lists in a flat CSR layout, and a
// query path that scans only the rows filed under the nprobe centroids
// nearest the query.
//
// The exact scan the server started with is O(n·d) per query; the IVF scan
// is O(nlist·d) routing plus O((nprobe/nlist)·n·d) candidate distances —
// with the default nlist ≈ √n and nprobe ≈ nlist/16 that is a ~16× cut in
// distance computations, at a recall@10 ≥ 0.95 on clustered embeddings
// (pinned by the package's differential tests against eval.NearestNeighbors).
//
// An Index is immutable after Build, so it can sit beside its embedding in
// a serving snapshot behind one atomic pointer: the pair is constructed at
// snapshot-publish time and swapped together, preserving the lock-free read
// path and zero-pause refresh of the serving layer. The index never copies
// the vectors — posting lists hold row ids, and every distance computation
// goes back through the quantized store (quant.Embedding), so the int8
// codec's 8× memory saving survives end to end.
package ann

import (
	"fmt"
	"math"

	"lightne/internal/par"
	"lightne/internal/quant"
	"lightne/internal/rng"
)

// Vectors is the row substrate an index is built over and queried against —
// a structural subset of quant.Embedding, so both serving codecs satisfy it
// without adapters. Implementations must be safe for concurrent readers.
type Vectors interface {
	// Shape returns (rows, cols).
	Shape() (rows, cols int)
	// Cosine is the similarity between stored rows u and v.
	Cosine(u, v int) float64
	// DequantTo writes row v as float32 into dst (len >= cols); used for
	// centroid training and query-to-centroid routing.
	DequantTo(dst []float32, v int)
}

// Defaults for Config fields left zero.
const (
	// DefaultIters is the k-means refinement iteration count. Spherical
	// k-means converges fast on embedding data; 8 Lloyd rounds over the
	// training sample is past the point of diminishing recall returns.
	DefaultIters = 8
	// DefaultTrainPerList is the training-sample budget per centroid.
	// 64 points per centroid is the standard IVF regime: enough to place
	// centroids stably, small enough that training cost stays O(√n · n^½·d).
	DefaultTrainPerList = 64
	// DefaultMinRows is the snapshot size below which serving should prefer
	// the exact scan: under ~4k rows the full scan is already microseconds
	// and IVF routing overhead plus recall loss buys nothing.
	DefaultMinRows = 4096
)

// Config tunes index construction and the default query-time probe width.
type Config struct {
	// Enabled gates ANN at the serving layer; Build itself ignores it
	// (callers that reached Build have already decided to build).
	Enabled bool
	// NList is the number of coarse centroids (posting lists). <= 0 picks
	// ceil(sqrt(rows)), the classical IVF balance point between routing
	// cost (∝ NList) and list-scan cost (∝ rows/NList).
	NList int
	// NProbe is the default number of posting lists scanned per query.
	// <= 0 picks max(1, NList/16). Raising it trades throughput for recall;
	// Search also accepts a per-call override.
	NProbe int
	// Iters is the number of k-means refinement rounds (default DefaultIters).
	Iters int
	// TrainPerList bounds the training sample at TrainPerList·NList rows
	// (default DefaultTrainPerList); the full row set is always assigned to
	// the final centroids regardless.
	TrainPerList int
	// MinRows is the snapshot size below which the serving layer skips ANN
	// and keeps the exact scan (default DefaultMinRows). Like Enabled it is
	// a serving-layer gate, not a Build concern.
	MinRows int
	// Seed makes training deterministic for a fixed worker count.
	Seed uint64
}

// rng stream tags separating the index's draw families from each other and
// from the samplers'.
const (
	initSeedTag   = 0x1f5a11ce
	reseedSeedTag = 0x7e5eeded
)

// Index is an immutable IVF index over the rows of one embedding. All
// methods are safe for concurrent use; an Index holds no pointer to the
// vectors it was built from — pass the same Vectors to Search.
type Index struct {
	rows, dims int
	nlist      int
	nprobe     int       // default probe width
	centroids  []float32 // nlist × dims, rows unit-normalized
	start      []int64   // nlist+1 CSR offsets into ids
	ids        []int32   // row ids grouped by assigned centroid
}

// Build constructs an IVF index over v: spherical k-means on a strided
// training sample (parallel assignment, deterministic per-centroid
// accumulation), then one parallel assignment pass filing every row into
// its centroid's posting list with the count/scan/fill idiom.
func Build(v Vectors, cfg Config) (*Index, error) {
	return build(v, cfg, assignTiled)
}

// build is Build with the assignment kernel as a parameter, so tests can run
// the whole construction on the scalar kernel it replaced.
func build(v Vectors, cfg Config, assignAll assigner) (*Index, error) {
	n, d := v.Shape()
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("ann: cannot index a %dx%d embedding", n, d)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("ann: %d rows exceed the int32 posting-list id space", n)
	}
	nlist := cfg.NList
	if nlist <= 0 {
		nlist = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if nlist > n {
		nlist = n
	}
	nprobe := cfg.NProbe
	if nprobe <= 0 {
		nprobe = nlist / 16
		if nprobe < 1 {
			nprobe = 1
		}
	}
	if nprobe > nlist {
		nprobe = nlist
	}
	iters := cfg.Iters
	if iters <= 0 {
		iters = DefaultIters
	}
	perList := cfg.TrainPerList
	if perList <= 0 {
		perList = DefaultTrainPerList
	}

	centroids := train(v, n, d, nlist, iters, perList, cfg.Seed, assignAll)

	// File every row: parallel nearest-centroid assignment straight from the
	// quantized store, then group the assignments into CSR posting lists.
	// Normalization is skipped — argmax of the dot is scale-invariant, so
	// raw dequantized rows route identically to unit rows.
	assign := make([]int32, n)
	assignAll(assign, func(i int, buf []float32) []float32 { v.DequantTo(buf, i); return buf }, centroids, d, nlist)
	start, ids := groupAssign(assign, nlist)

	return &Index{
		rows: n, dims: d,
		nlist: nlist, nprobe: nprobe,
		centroids: centroids,
		start:     start,
		ids:       ids,
	}, nil
}

// train runs spherical k-means over a strided sample of v's rows and
// returns the unit-normalized centroid matrix (nlist × d).
func train(v Vectors, n, d, nlist, iters, perList int, seed uint64, assignAll assigner) []float32 {
	m := nlist * perList
	if m > n {
		m = n
	}
	// Materialize the training rows, unit-normalized: sample i is row i·n/m
	// (distinct for m <= n; stride order is irrelevant to k-means).
	train := make([]float32, m*d)
	par.ForRange(m, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := train[i*d : (i+1)*d]
			v.DequantTo(row, i*n/m)
			normalize(row)
		}
	})

	// Init: nlist distinct training rows via a seeded partial Fisher-Yates.
	centroids := make([]float32, nlist*d)
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}
	src := rng.New(seed, initSeedTag)
	for i := 0; i < nlist; i++ {
		j := i + src.Intn(m-i)
		perm[i], perm[j] = perm[j], perm[i]
		copy(centroids[i*d:(i+1)*d], train[int(perm[i])*d:(int(perm[i])+1)*d])
	}

	assign := make([]int32, m)
	for it := 0; it < iters; it++ {
		assignAll(assign, func(i int, _ []float32) []float32 { return train[i*d : (i+1)*d] }, centroids, d, nlist)
		start, ids := groupAssign(assign, nlist)
		// Per-centroid accumulation: members are visited in ascending row
		// order (groupAssign fills stably), so the float sums — and thus the
		// centroids — are deterministic for a fixed (seed, GOMAXPROCS).
		empty := make([]bool, nlist)
		par.For(nlist, 1, func(c int) {
			members := ids[start[c]:start[c+1]]
			if len(members) == 0 {
				empty[c] = true
				return
			}
			sum := make([]float64, d)
			for _, r := range members {
				row := train[int(r)*d : (int(r)+1)*d]
				for j, x := range row {
					sum[j] += float64(x)
				}
			}
			out := centroids[c*d : (c+1)*d]
			var nn float64
			for _, s := range sum {
				nn += s * s
			}
			if nn == 0 {
				empty[c] = true
				return
			}
			inv := 1 / math.Sqrt(nn)
			for j, s := range sum {
				out[j] = float32(s * inv)
			}
		})
		// Reseed empty centroids from a deterministic training row so no
		// posting list is permanently dead.
		for c := 0; c < nlist; c++ {
			if !empty[c] {
				continue
			}
			r := int(rng.Hash64(seed^reseedSeedTag, uint64(it)<<32|uint64(c)) % uint64(m))
			copy(centroids[c*d:(c+1)*d], train[r*d:(r+1)*d])
		}
	}
	return centroids
}

// assigner writes the nearest centroid (max dot) of each of len(assign) rows
// into assign; row(i, buf) returns row i, dequantizing into buf (len d) if
// it must. assignTiled is the one Build uses.
type assigner func(assign []int32, row func(i int, buf []float32) []float32, centroids []float32, d, nlist int)

// assignTiled widens the centroids to float64 once per call and each row
// once, then scores them with nearestCentroid.
func assignTiled(assign []int32, row func(int, []float32) []float32, centroids []float32, d, nlist int) {
	cents := make([]float64, len(centroids))
	for i, x := range centroids {
		cents[i] = float64(x)
	}
	par.ForRange(len(assign), 64, func(lo, hi int) {
		buf, wide := make([]float32, d), make([]float64, d)
		for i := lo; i < hi; i++ {
			for j, x := range row(i, buf) {
				wide[j] = float64(x)
			}
			assign[i] = nearestCentroid(wide, cents, nlist)
		}
	})
}

// nearestCentroid returns the centroid (a row of cents, len(row) wide) with
// the largest dot product against row; ties break toward the lower id. Four
// centroids are scored per pass over the row, one accumulator each, so every
// dot is the same left-to-right sum as a one-centroid loop, and the strict
// comparisons run in ascending id order: the result is the scalar kernel's.
// A last group short of four re-scores centroid nlist-1 in its spare lanes
// and never compares them.
func nearestCentroid(row, cents []float64, nlist int) int32 {
	d := len(row)
	lane := func(c int) []float64 { return cents[min(c, nlist-1)*d:][:d] }
	best, bestDot := int32(0), math.Inf(-1)
	for c := 0; c < nlist; c += 4 {
		c0, c1, c2, c3 := lane(c), lane(c+1), lane(c+2), lane(c+3)
		var s0, s1, s2, s3 float64
		for j, x := range row {
			s0 += x * c0[j]
			s1 += x * c1[j]
			s2 += x * c2[j]
			s3 += x * c3[j]
		}
		for k, dot := range [4]float64{s0, s1, s2, s3} {
			if c+k < nlist && dot > bestDot {
				best, bestDot = int32(c+k), dot
			}
		}
	}
	return best
}

// groupAssign builds CSR posting lists from an assignment vector with the
// repo's standard count/scan/fill: per-block centroid counts, block-major
// exclusive offsets, then a stable parallel scatter — row ids within a list
// come out in ascending order.
func groupAssign(assign []int32, nlist int) (start []int64, ids []int32) {
	n := len(assign)
	bounds := par.Blocks(n, 4096)
	nb := len(bounds) - 1
	counts := make([]int64, nb*nlist)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		row := counts[b*nlist : (b+1)*nlist]
		for i := lo; i < hi; i++ {
			row[assign[i]]++
		}
	})
	// start[c] = total of all blocks' counts for centroids < c; the scatter
	// offset for (block b, centroid c) additionally skips blocks < b.
	start = make([]int64, nlist+1)
	offs := make([]int64, nb*nlist)
	var run int64
	for c := 0; c < nlist; c++ {
		start[c] = run
		for b := 0; b < nb; b++ {
			offs[b*nlist+c] = run
			run += counts[b*nlist+c]
		}
	}
	start[nlist] = run
	ids = make([]int32, n)
	par.ForBlocks(bounds, func(b, lo, hi int) {
		row := offs[b*nlist : (b+1)*nlist]
		for i := lo; i < hi; i++ {
			c := assign[i]
			ids[row[c]] = int32(i)
			row[c]++
		}
	})
	return start, ids
}

// normalize scales row to unit L2 norm in place (zero rows stay zero).
func normalize(row []float32) {
	var s float64
	for _, x := range row {
		s += float64(x) * float64(x)
	}
	if s == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(s))
	for j := range row {
		row[j] *= inv
	}
}

// Search returns the ids and cosine similarities of the k rows most similar
// to row q (excluding q), scanning the posting lists of the nprobe
// centroids nearest q; nprobe <= 0 uses the index default. The third result
// is the number of row-distance computations performed — the work an exact
// scan would spend rows-1 on — for observability and the differential
// benchmarks. v must be the embedding the index was built from.
func (ix *Index) Search(v Vectors, q, k, nprobe int) ([]int, []float64, int, error) {
	rows, d := v.Shape()
	if rows != ix.rows || d != ix.dims {
		return nil, nil, 0, fmt.Errorf("ann: index built over %dx%d rows queried with %dx%d embedding", ix.rows, ix.dims, rows, d)
	}
	if q < 0 || q >= ix.rows {
		return nil, nil, 0, fmt.Errorf("ann: row %d out of range", q)
	}
	if k <= 0 {
		return nil, nil, 0, fmt.Errorf("ann: k must be positive")
	}
	if nprobe <= 0 {
		nprobe = ix.nprobe
	}
	if nprobe > ix.nlist {
		nprobe = ix.nlist
	}

	// Route: score every centroid against the query row and keep the top
	// nprobe (the shared top-k heap; centroid count is small, so this is
	// the cheap O(nlist·d) part).
	buf := make([]float32, d)
	v.DequantTo(buf, q)
	cs := make([]float64, ix.nlist)
	par.For(ix.nlist, 64, func(c int) {
		cent := ix.centroids[c*d : (c+1)*d]
		var dot float64
		for j, x := range buf {
			dot += float64(x) * float64(cent[j])
		}
		cs[c] = dot
	})
	probe, _ := quant.SelectTopK(cs, nprobe)

	// Scan: gather the probed lists' candidates and compute similarities in
	// parallel through the quantized store (int8 stays in the integer
	// domain — the same kernel the exact scan uses).
	total := 0
	for _, c := range probe {
		total += int(ix.start[c+1] - ix.start[c])
	}
	cands := make([]int32, 0, total)
	for _, c := range probe {
		cands = append(cands, ix.ids[ix.start[c]:ix.start[c+1]]...)
	}
	sims := make([]float64, len(cands))
	par.For(len(cands), 256, func(i int) {
		id := int(cands[i])
		if id == q {
			sims[i] = math.Inf(-1)
			return
		}
		sims[i] = v.Cosine(q, id)
	})
	pos, vals := quant.SelectTopK(sims, k)
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = int(cands[p])
	}
	return out, vals, len(cands), nil
}

// NList returns the number of posting lists (coarse centroids).
func (ix *Index) NList() int { return ix.nlist }

// NProbe returns the default probe width.
func (ix *Index) NProbe() int { return ix.nprobe }

// Rows returns the number of indexed rows.
func (ix *Index) Rows() int { return ix.rows }

// Dims returns the embedding dimension the index was built for.
func (ix *Index) Dims() int { return ix.dims }

// MemoryBytes is the index's resident size: centroids, offsets and posting
// lists (the vectors themselves live in the embedding store).
func (ix *Index) MemoryBytes() int64 {
	return int64(len(ix.centroids))*4 + int64(len(ix.start))*8 + int64(len(ix.ids))*4
}

// Stats describes an index's layout for logs and health endpoints.
type Stats struct {
	Rows, Dims    int
	NList, NProbe int
	MinList       int // smallest posting list
	MaxList       int // largest posting list
	EmptyLists    int
	MemoryBytes   int64
}

// Stats summarizes the index layout.
func (ix *Index) Stats() Stats {
	st := Stats{
		Rows: ix.rows, Dims: ix.dims,
		NList: ix.nlist, NProbe: ix.nprobe,
		MinList:     math.MaxInt,
		MemoryBytes: ix.MemoryBytes(),
	}
	for c := 0; c < ix.nlist; c++ {
		l := int(ix.start[c+1] - ix.start[c])
		if l == 0 {
			st.EmptyLists++
		}
		if l < st.MinList {
			st.MinList = l
		}
		if l > st.MaxList {
			st.MaxList = l
		}
	}
	if ix.nlist == 0 {
		st.MinList = 0
	}
	return st
}
