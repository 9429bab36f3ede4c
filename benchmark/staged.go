package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"lightne"
	"lightne/internal/dense"
	"lightne/internal/hashtable"
	"lightne/internal/netsmf"
	"lightne/internal/prone"
	"lightne/internal/sampler"
	"lightne/internal/sparse"
	"lightne/internal/svd"
)

// The traced run recomposes lightne.Embed stage by stage from the layers'
// public functions, one span per layer boundary. The composition mirrors
// core.Embed → netsmf.Run / runStreamed call for call (same seeds, same
// options), so the counts must match the untraced run exactly; the streamed
// pipeline's transform/absorb overlap is the one thing not reproduced —
// chunks are transformed and absorbed in turn so each gets its own span.

// streamChunkEntries mirrors netsmf's chunk size; it never affects results.
const streamChunkEntries = 1 << 20

// staged is what one recomposed embed produced.
type staged struct {
	root  int // span id of core.embed
	x     *lightne.Matrix
	sigma []float64
	stats sampler.Stats
	nnz   int64 // entries kept by trunc-log

	// The raw drained structure (for the table and kernel probes). ws still
	// holds the raw weights only on the streamed path; BuildMatrixCSR
	// scales it in place on the rSVD path, where mat is kept instead.
	rowPtr []int64
	cols   []uint32
	ws     []float64
	mat    *sparse.CSR
}

func stagedEmbed(tr *tracer, rep int, g *lightne.Graph, cfg lightne.Config) (*staged, error) {
	out := &staged{}
	n := g.NumVertices()
	out.root = tr.begin("core.embed", -1, rep)
	defer tr.end(out.root)
	stage := func(name string, fn func()) { tr.in(name, out.root, rep, fn) }

	scfg := sampler.Config{
		T: cfg.T, M: netsmf.MFromMultiple(g, cfg.T, cfg.SampleMultiple),
		Downsample: !cfg.NoDownsample, C: cfg.C, Seed: cfg.Seed, Shards: cfg.Shards,
	}
	var table sampler.Sink
	var err error
	stage("sampler.sample", func() {
		if cfg.BatchedWalks {
			table, out.stats, err = sampler.SampleBatched(g, scfg, cfg.WaveSize)
		} else {
			table, out.stats, err = sampler.Sample(g, scfg)
		}
	})
	if err != nil {
		return nil, err
	}
	b := cfg.NegSamples

	var res *svd.Result
	if cfg.StreamedSVD {
		var sk *svd.Sketch
		stage("svd.sketch_init", func() {
			sk, err = svd.NewSketch(n, cfg.Dim, svd.SketchOptions{Seed: cfg.Seed + 1, Kind: cfg.Sketch, Oversample: cfg.Oversample})
		})
		if err != nil {
			return nil, err
		}
		stage("hashtable.drain_csr", func() { out.rowPtr, out.cols, out.ws = table.DrainCSR(n) })
		table = nil
		vol, deg := g.Volume(), g.Strengths()
		scale := vol * vol / (2 * b * float64(out.stats.Trials))
		bounds := sampler.ChunkRows(out.rowPtr, streamChunkEntries)
		var chunk svd.RowChunk
		for c := 0; c+1 < len(bounds); c++ {
			lo, hi := bounds[c], bounds[c+1]
			stage("netsmf.scale_trunclog", func() {
				chunk = svd.RowChunk{RowLo: lo, RowPtr: make([]int64, hi-lo+1), Cols: chunk.Cols[:0], Vals: chunk.Vals[:0]}
				for r := lo; r < hi; r++ {
					for p := out.rowPtr[r]; p < out.rowPtr[r+1]; p++ {
						col := out.cols[p]
						if x := out.ws[p] * scale / (deg[r] * deg[col]); x > 1 {
							chunk.Cols = append(chunk.Cols, col)
							chunk.Vals = append(chunk.Vals, math.Log(x))
						}
					}
					chunk.RowPtr[r-lo+1] = int64(len(chunk.Cols))
				}
			})
			out.nnz += chunk.NNZ()
			stage("svd.sketch_absorb", func() { sk.Absorb(chunk) })
		}
		stage("svd.sketch_factorize", func() { res, err = sk.Factorize() })
	} else {
		stage("hashtable.drain_csr", func() { out.rowPtr, out.cols, out.ws = table.DrainCSR(n) })
		table = nil
		stage("netsmf.scale_trunclog", func() {
			out.mat, err = netsmf.BuildMatrixCSR(g, out.rowPtr, out.cols, out.ws, b, out.stats.Trials)
		})
		if err != nil {
			return nil, err
		}
		out.ws = nil
		out.nnz = out.mat.NNZ()
		stage("svd.rsvd", func() { res, err = svd.RandomizedSVD(out.mat, cfg.Dim, rsvdOptions(cfg)) })
	}
	if err != nil {
		return nil, err
	}
	out.sigma = res.Sigma
	stage("svd.embed_from_svd", func() { out.x = svd.EmbedFromSVD(res) })
	if !cfg.SkipPropagation {
		stage("prone.propagate", func() { out.x, err = prone.Propagate(g, out.x, cfg.Propagation) })
	}
	return out, err
}

func rsvdOptions(cfg lightne.Config) svd.Options {
	return svd.Options{Seed: cfg.Seed + 1, Oversample: cfg.Oversample, PowerIters: cfg.PowerIters, Symmetric: true}
}

// usage is a resource reading around a stretch of work.
type usage struct {
	wall                time.Time
	cpu                 float64 // user+sys seconds of this process
	totalAlloc, mallocs uint64
	pauseNs             uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{time.Now(), tv(ru.Utime) + tv(ru.Stime), ms.TotalAlloc, ms.Mallocs, ms.PauseTotalNs}
}

// heapPoller samples the live Go heap every 2 ms and keeps the maximum.
type heapPoller struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  uint64
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapPoller() *heapPoller {
	p := &heapPoller{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := heapObjects(); h > p.max {
				p.max = h
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *heapPoller) finish() uint64 {
	close(p.stop)
	p.wg.Wait()
	return p.max
}

const mb = 1 << 20

// timeMedian runs fn reps times and returns the median seconds.
func timeMedian(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t := time.Now()
		fn()
		ts[i] = since(t)
	}
	return median(ts)
}

// probeKernels times the dense and sparse kernels once each at the run's
// own shapes (mat is the real sparsifier, k the factorization width), then
// both factorizers on mat, and returns the per-layer metrics they feed.
// rsvdS is the measured rSVD span when the workload's own path ran one
// (0 otherwise: the probe's own timing stands in).
func probeKernels(mat *sparse.CSR, cfg lightne.Config, rsvdS float64, pathSigma []float64, m map[string]float64) error {
	n, k := mat.NumRows, cfg.Dim+cfg.Oversample
	x := dense.NewMatrix(n, k)
	x.FillGaussian(cfg.Seed + 7)
	y := dense.NewMatrix(n, k)
	small := dense.NewMatrix(k, k)
	small.FillGaussian(cfg.Seed + 8)
	z := dense.NewMatrix(n, k)
	c := dense.NewMatrix(k, k)
	fn, fk := float64(n), float64(k)

	m["sparse.spmm_s"] = timeMedian(3, func() { sparse.SpMM(y, mat, x) })
	m["sparse.spmm_gflops_computed"] = 2 * float64(mat.NNZ()) * fk / m["sparse.spmm_s"] / 1e9
	m["dense.qr_s"] = timeMedian(3, func() { dense.Orthonormalize(y) })
	// Householder thin QR plus forming Q: 2·(2nk² − ⅔k³) flops.
	m["dense.qr_gflops_computed"] = (4*fn*fk*fk - 4*fk*fk*fk/3) / m["dense.qr_s"] / 1e9
	m["dense.matmul_s"] = timeMedian(3, func() { dense.MatMul(z, y, small) })
	m["dense.matmul_atb_s"] = timeMedian(3, func() { dense.MatMulATB(c, z, y) })
	m["dense.small_svd_s"] = timeMedian(3, func() { dense.SVD(c) })

	var rres *svd.Result
	var err error
	probeReps := 1 // only the spectrum is needed when the path timed its own rSVD
	if rsvdS == 0 {
		probeReps = 3
	}
	probeRSVD := timeMedian(probeReps, func() { rres, err = svd.RandomizedSVD(mat, cfg.Dim, rsvdOptions(cfg)) })
	if err != nil {
		return err
	}
	if rsvdS == 0 {
		rsvdS = probeRSVD
	}
	m["svd.rsvd_s"] = rsvdS
	// The step list of svd/rsvd.go: 2 SpMM, 2 orthonormalizations, 3 n×k·k×k
	// products, 1 AᵀB product and 1 small SVD.
	model := 2*m["sparse.spmm_s"] + 2*m["dense.qr_s"] + 3*m["dense.matmul_s"] + m["dense.matmul_atb_s"] + m["dense.small_svd_s"]
	m["svd.kernel_model_cover"] = model / rsvdS

	sigma := pathSigma
	if !cfg.StreamedSVD {
		// The workload's path is rSVD; run the sketch beside it as a probe.
		sk, err := svd.NewSketch(n, cfg.Dim, svd.SketchOptions{Seed: cfg.Seed + 1, Kind: cfg.Sketch, Oversample: cfg.Oversample})
		if err != nil {
			return err
		}
		m["svd.sketch_absorb_s"] = timeMedian(1, func() { sk.AbsorbCSR(mat.RowPtr, mat.ColIdx, mat.Val, streamChunkEntries) })
		var sres *svd.Result
		m["svd.sketch_factorize_s"] = timeMedian(1, func() { sres, err = sk.Factorize() })
		if err != nil {
			return err
		}
		sigma = sres.Sigma
	}
	// Sketch against rSVD on the leading third of the spectrum (as E14).
	lead := (len(sigma) + 2) / 3
	var rel float64
	for i := 0; i < lead; i++ {
		rel += math.Abs(sigma[i]-rres.Sigma[i]) / rres.Sigma[i]
	}
	m["svd.sigma_relerr_vs_rsvd"] = rel / float64(lead)
	return nil
}

// probeTable measures the write side of the aggregation table beside its
// read side: the drained keys go back into a fresh sink of the workload's
// own kind through AddFixedBatch.
func probeTable(rowPtr []int64, cols []uint32, shards int) float64 {
	keys := make([]uint64, len(cols))
	fixed := make([]uint64, len(cols))
	one := hashtable.ToFixed(1)
	for r := 0; r+1 < len(rowPtr); r++ {
		for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
			keys[p] = hashtable.Key(uint32(r), cols[p])
			fixed[p] = one
		}
	}
	s := timeMedian(3, func() { sampler.NewSink(len(keys), shards).AddFixedBatch(keys, fixed) })
	return float64(len(keys)) / s / 1e6
}

// probeGraph times the loaders and the compressed adjacency on the run's
// own training graph.
func probeGraph(train *lightne.Graph, dir string, m map[string]float64) error {
	n := train.NumVertices()
	txt, lngc := filepath.Join(dir, "probe.txt"), filepath.Join(dir, "probe.lngc")
	if err := writeText(train, txt); err != nil {
		return err
	}
	var err error
	m["graph.load_text_s"] = timeMedian(1, func() { _, err = loadText(txt, n) })
	if err != nil {
		return err
	}
	var comp *lightne.Graph
	m["compress.build_s"] = timeMedian(1, func() { comp, err = lightne.CompressGraph(train, 0) })
	if err != nil {
		return err
	}
	m["compress.ratio"] = float64(train.SizeBytes()) / float64(comp.SizeBytes())
	if err := writeLNGC(train, lngc); err != nil {
		return err
	}
	var mapped *lightne.Graph
	m["graph.load_mmap_s"] = timeMedian(1, func() { mapped, err = lightne.MmapGraph(lngc) })
	if err != nil {
		return err
	}
	defer mapped.Munmap()
	// Decode every vertex's adjacency through the mapped file.
	var arcs int
	var buf []uint32
	sweep := timeMedian(3, func() {
		arcs = 0
		for u := 0; u < n; u++ {
			buf = mapped.Neighbors(uint32(u), buf[:0])
			arcs += len(buf)
		}
	})
	if int64(arcs) != train.NumEdges() {
		return fmt.Errorf("compressed sweep decoded %d arcs, graph has %d", arcs, train.NumEdges())
	}
	m["compress.decode_marcs_per_s"] = float64(arcs) / sweep / 1e6
	return nil
}

// probeIO times the artifact writer and reader on the run's embedding.
func probeIO(x *lightne.Matrix, dir string, m map[string]float64) error {
	path := filepath.Join(dir, "probe.lneb")
	var err error
	m["io.write_embedding_s"] = timeMedian(3, func() {
		if e := writeArtifact(path, x); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	m["io.read_embedding_s"] = timeMedian(3, func() {
		if _, e := readArtifact(path); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["io.artifact_mb"] = float64(st.Size()) / mb
	return nil
}

func readArtifact(path string) (*lightne.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lightne.ReadEmbedding(f)
}

// coldCLI runs cmd/lightne once, cold, on the same input with the
// equivalent flags — what a one-shot user pays — and returns the AUC of the
// artifact it wrote.
func coldCLI(binDir, dir string, w workload, in *inputs, seed uint64, m map[string]float64) (float64, error) {
	out := filepath.Join(dir, "cli.lneb")
	cmd := exec.Command(filepath.Join(binDir, "lightne"), w.cliArgs(in, seed, out)...)
	var msg bytes.Buffer
	cmd.Stdout, cmd.Stderr = &msg, &msg
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	// Poll the child's own peak RSS while it runs (see vmHWMMB for why
	// ru_maxrss will not do).
	exited := make(chan struct{})
	var rss float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if v := vmHWMMB(cmd.Process.Pid); v > rss {
				rss = v
			}
			select {
			case <-exited:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	err := cmd.Wait()
	m["cli.cold_wall_s"] = since(t)
	close(exited)
	wg.Wait()
	if err != nil {
		return 0, fmt.Errorf("lightne %v: %v\n%s", cmd.Args, err, msg.Bytes())
	}
	m["cli.max_rss_mb"] = rss
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		m["cli.sys_s"] = float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6
		m["cli.minor_faults"] = float64(ru.Minflt)
	}
	x, err := readArtifact(out)
	if err != nil {
		return 0, err
	}
	if x.Rows != in.n {
		return 0, fmt.Errorf("cmd/lightne wrote %d rows for a %d-vertex graph", x.Rows, in.n)
	}
	return lightne.AUC(x, in.test, aucNegatives, seed+2), nil
}
