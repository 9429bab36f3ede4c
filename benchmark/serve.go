package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"lightne"
	"lightne/internal/ann"
	"lightne/internal/quant"
	"lightne/internal/serve"
)

// The serving side. Every run starts a lightne-serve child process several
// times (set-up time); the traced run then puts the last one under a closed
// loop of keep-alive clients (one per hardware thread, each waiting for its
// reply before sending the next request) and hot-swaps the artifact under it.

// op is one request kind of the traffic mix.
type op int

const (
	opNeighbors     op = iota // GET  /v1/neighbors?vertex=V&k=10   70 %
	opNeighborsPost           // POST /v1/neighbors  k=100           10 %
	opBatch                   // POST /v1/batch of 16, k=10          10 %
	opEmbedding               // GET  /v1/embedding/V                10 %
	numOps
)

const (
	batchSize = 16
	knnK      = 10
	// knnSampleEvery: 1 in this many k=10 answers is kept and compared with
	// the exact top-10 after the run.
	knnSampleEvery = 4
	// loadClients is the number of closed-loop connections: one per hardware
	// thread of the two-core sandbox the benchmark was sized on.
	loadClients = 2
	// smokeANNMinRows lets the 1024-vertex smoke graphs take the IVF path;
	// real runs leave -ann-min-rows at the server's default.
	smokeANNMinRows = 1024
	// recallGoal is the recall@10 the issue asks of the served answers. The
	// server's default probe width (nlist/16) does not reach it on these
	// embeddings; the run says so instead of widening the probe.
	recallGoal = 0.90
)

// request is one generated query.
type request struct {
	kind     op
	vertices []int // one vertex, or batchSize for opBatch
}

// nextRequest draws the next request of the mix from r, over the given
// queryable vertices. The same rand state gives the same request.
func nextRequest(r *rand.Rand, queryable []int) request {
	pick := func() int { return queryable[r.Intn(len(queryable))] }
	switch p := r.Intn(10); {
	case p < 7:
		return request{opNeighbors, []int{pick()}}
	case p == 7:
		return request{opNeighborsPost, []int{pick()}}
	case p == 8:
		vs := make([]int, batchSize)
		for i := range vs {
			vs[i] = pick()
		}
		return request{opBatch, vs}
	default:
		return request{opEmbedding, []int{pick()}}
	}
}

// build turns the request into an HTTP request against base.
func (q request) build(base string) (*http.Request, error) {
	k := knnK
	switch q.kind {
	case opNeighbors:
		return http.NewRequest(http.MethodGet,
			base+"/v1/neighbors?vertex="+strconv.Itoa(q.vertices[0])+"&k="+strconv.Itoa(knnK), nil)
	case opNeighborsPost:
		k = 100
		body, _ := json.Marshal(serve.NeighborsRequest{Vertex: q.vertices[0], K: &k}) // plain struct: cannot fail
		return postJSON(base+"/v1/neighbors", body)
	case opBatch:
		br := serve.BatchRequest{Queries: make([]serve.NeighborsRequest, len(q.vertices))}
		for i, v := range q.vertices {
			br.Queries[i] = serve.NeighborsRequest{Vertex: v, K: &k}
		}
		body, _ := json.Marshal(br) // plain struct: cannot fail
		return postJSON(base+"/v1/batch", body)
	default:
		return http.NewRequest(http.MethodGet, base+"/v1/embedding/"+strconv.Itoa(q.vertices[0]), nil)
	}
}

func postJSON(url string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// server is a running lightne-serve child.
type server struct {
	cmd      *exec.Cmd
	base     string
	artifact string
	logFile  *os.File
	readyS   float64 // spawn → /readyz 200
	ctl      *http.Client
}

func writeArtifact(path string, x *lightne.Matrix) error {
	tmp := path + ".tmp"
	if err := writeFile(tmp, func(w *bufio.Writer) error { return lightne.WriteEmbeddingBinary(w, x) }); err != nil {
		return err
	}
	return os.Rename(tmp, path) // the child must never read a half-written file
}

// startServer spawns lightne-serve -ann, every other setting at its default,
// on a free loopback port over the given artifact and waits for /readyz.
func startServer(o options, artifact string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logFile, err := os.Create(filepath.Join(o.outDir, "lightne-serve.log"))
	if err != nil {
		return nil, err
	}
	s := &server{
		base:     "http://" + addr,
		artifact: artifact,
		logFile:  logFile,
		ctl:      &http.Client{Timeout: 2 * time.Second},
	}
	args := []string{"-artifact", artifact, "-addr", addr, "-ann"}
	if o.smoke {
		args = append(args, "-ann-min-rows", strconv.Itoa(smokeANNMinRows))
	}
	s.cmd = exec.Command(filepath.Join(o.binDir, "lightne-serve"), args...)
	s.cmd.Stdout, s.cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	for {
		resp, err := s.ctl.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 20*time.Second {
			s.stop()
			return nil, fmt.Errorf("lightne-serve not ready after 20 s (see %s)", logFile.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.readyS = since(start)
	return s, nil
}

// stop terminates the child, waits for it and returns its peak RSS in MB.
func (s *server) stop() float64 {
	defer s.logFile.Close()
	rss := vmHWMMB(s.cmd.Process.Pid)
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait reports it
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
		}
	}()
	_ = s.cmd.Wait() // exit status of a signalled child is not a result
	close(done)
	return rss
}

func (s *server) version() (uint64, error) {
	resp, err := s.ctl.Get(s.base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	return h.SnapshotVersion, nil
}

// swap rewrites the artifact, signals the child and waits until /healthz
// shows a newer snapshot; it returns the seconds from signal to visible.
func (s *server) swap(x *lightne.Matrix) (float64, error) {
	before, err := s.version()
	if err != nil {
		return 0, err
	}
	if err := writeArtifact(s.artifact, x); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		return 0, err
	}
	for time.Since(start) < 10*time.Second {
		if v, err := s.version(); err == nil && v > before {
			return since(start), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("snapshot_version stayed at %d for 10 s after SIGHUP", before)
}

// knnSample is one k=10 answer kept for the recall check.
type knnSample struct {
	vertex int
	ids    []int
}

// segment is what one timed stretch of load observed.
type segment struct {
	lat      [numOps][]float64 // seconds per request, by kind
	elapsed  float64
	requests int
	bad      int // transport errors and non-200 statuses
	shed     int // 503s among them
	knn      []knnSample
	swapS    float64
	swapErr  error
}

func (sg *segment) merge(o *segment) {
	for k := range sg.lat {
		sg.lat[k] = append(sg.lat[k], o.lat[k]...)
	}
	sg.requests += o.requests
	sg.bad += o.bad
	sg.shed += o.shed
	sg.knn = append(sg.knn, o.knn...)
}

func (sg *segment) all() []float64 {
	var out []float64
	for k := range sg.lat {
		out = append(out, sg.lat[k]...)
	}
	return out
}

// loadClient is one closed-loop client: its own connection and its own
// seeded request stream.
type loadClient struct {
	http *http.Client
	rng  *rand.Rand
	buf  bytes.Buffer
}

func newLoadClients(n int, seed uint64) []*loadClient {
	cs := make([]*loadClient, n)
	for i := range cs {
		cs[i] = &loadClient{
			http: &http.Client{
				Timeout:   10 * time.Second,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			},
			rng: rand.New(rand.NewSource(int64(seed)*1000003 + int64(i))),
		}
	}
	return cs
}

// run sends requests back to back until the deadline.
func (c *loadClient) run(base string, queryable []int, deadline time.Time, tr *tracer, parent, rep int) *segment {
	sg := &segment{}
	for time.Now().Before(deadline) {
		q := nextRequest(c.rng, queryable)
		req, err := q.build(base)
		if err != nil {
			sg.requests++
			sg.bad++
			continue
		}
		id := tr.begin(spanNames[q.kind], parent, rep)
		start := time.Now()
		resp, err := c.http.Do(req)
		status := 0
		if err == nil {
			c.buf.Reset()
			_, err = c.buf.ReadFrom(resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}
		lat := since(start)
		tr.end(id)
		sg.requests++
		if err != nil || status != http.StatusOK {
			sg.bad++
			if status == http.StatusServiceUnavailable {
				sg.shed++
			}
			continue
		}
		sg.lat[q.kind] = append(sg.lat[q.kind], lat)
		if q.kind == opNeighbors && len(sg.lat[opNeighbors])%knnSampleEvery == 0 {
			var nr serve.NeighborsResponse
			if json.Unmarshal(c.buf.Bytes(), &nr) != nil || nr.Vertex != q.vertices[0] {
				sg.bad++
				continue
			}
			ids := make([]int, len(nr.Neighbors))
			for i, nb := range nr.Neighbors {
				ids[i] = nb.Vertex
			}
			sg.knn = append(sg.knn, knnSample{q.vertices[0], ids})
		}
	}
	return sg
}

var spanNames = [numOps]string{"serve.neighbors", "serve.neighbors_post", "serve.batch16", "serve.embedding"}

// runSegment drives every client for dur and merges what the clients saw.
// With swap set, one hot swap (artifact rewrite, SIGHUP, index and ANN
// rebuild in the child) lands beside the reads.
func runSegment(s *server, clients []*loadClient, queryable []int, x *lightne.Matrix, dur time.Duration, swap bool, tr *tracer, rep int) *segment {
	parent := tr.begin("serve.segment", -1, rep)
	defer tr.end(parent)
	out := &segment{}
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]*segment, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			parts[i] = c.run(s.base, queryable, deadline, tr, parent, rep)
		}(i, c)
	}
	if swap {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.begin("serve.swap", parent, rep)
			out.swapS, out.swapErr = s.swap(x)
			tr.end(id)
		}()
	}
	wg.Wait()
	out.elapsed = since(start)
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// startServers writes x as an artifact and starts a lightne-serve child over
// it starts times, each timed from the write to /readyz. It returns the
// samples and the last child, still running.
func startServers(m *meter, o options, x *lightne.Matrix, starts int) ([]sample, *server, error) {
	artifact := filepath.Join(o.outDir, "emb.lneb")
	var srv *server
	reps, err := m.measure(0, starts, starts, nil, func() (float64, error) {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t := time.Now()
		if err := writeArtifact(artifact, x); err != nil {
			return 0, err
		}
		var err error
		if srv, err = startServer(o, artifact); err != nil {
			return 0, err
		}
		return since(t), nil
	})
	if err != nil && srv != nil {
		srv.stop()
		srv = nil
	}
	return reps, srv, err
}

// servePhase is the outcome of the serving segments.
type servePhase struct {
	segments      int
	pooled        *segment // the steady segments merged
	qps           float64  // requests ÷ time over the steady segments
	recall        float64
	recallAnswers int
	swaps         int
	swapS         float64  // median signal → visible, under load
	swapLoad      *segment // the swap segments merged
	rssMB         float64  // child's own VmHWM
}

// steadySegment is the length of one stretch of steady load: about 3 000
// requests, one span.
const steadySegment = time.Second

// runServePhase puts srv under the query mix and stops it: a warm-up segment
// with a hot swap under load, then steady segments until the budget is
// spent, then a second swap under load. Swaps are kept out of the steady
// segments so that every steady segment is the same experiment; what a swap
// costs the reads beside it is reported apart. The figures are as the clock
// read them: they are per-layer metrics, which identical code repeats only
// within 15–25 % on the sandbox (see README.md).
func runServePhase(srv *server, o options, x *lightne.Matrix, queryable []int, budget time.Duration, tr *tracer, c *checks) (*servePhase, error) {
	ph := &servePhase{pooled: &segment{}, swapLoad: &segment{}}
	defer func() { ph.rssMB = srv.stop() }()

	clients := newLoadClients(loadClients, o.seed)
	swapDur, segDur := budget/8, steadySegment
	if segDur > budget/8 {
		segDur = budget / 8
	}
	swapSegs := []*segment{runSegment(srv, clients, queryable, x, swapDur, true, nil, -1)} // doubles as the warm-up
	var steady []*segment
	for start := time.Now(); len(steady) == 0 || time.Since(start) < budget-2*swapDur; {
		steady = append(steady, runSegment(srv, clients, queryable, x, segDur, false, tr, len(steady)))
	}
	swapSegs = append(swapSegs, runSegment(srv, clients, queryable, x, swapDur, true, tr, len(steady)))

	var elapsed float64
	for _, sg := range steady {
		ph.pooled.merge(sg)
		elapsed += sg.elapsed
	}
	ph.segments = len(steady)
	ph.qps = float64(ph.pooled.requests) / elapsed

	var swapTimes []float64
	for _, sg := range swapSegs {
		ph.swapLoad.merge(sg)
		c.check(sg.swapErr == nil, "hot swap not observed: %v", sg.swapErr)
		if sg.swapErr == nil {
			ph.swaps++
			swapTimes = append(swapTimes, sg.swapS)
		}
	}
	every := append(append([]*segment(nil), steady...), swapSegs...)
	for _, sg := range every {
		c.attempted += sg.requests
		c.failed += sg.bad
	}
	ph.swapS = median(swapTimes)

	exact := quant.ToFloat32(x)
	var hits, want int
	for _, sg := range every {
		for _, s := range sg.knn {
			ids, _, err := exact.TopK(s.vertex, knnK)
			if err != nil {
				return nil, err
			}
			truth := make(map[int]bool, len(ids))
			for _, id := range ids {
				truth[id] = true
			}
			for _, id := range s.ids {
				if truth[id] {
					hits++
				}
			}
			want += len(ids)
			ph.recallAnswers++
		}
	}
	c.check(want > 0, "no k=10 answers were sampled for the recall check")
	if want > 0 {
		ph.recall = float64(hits) / float64(want)
	}
	return ph, nil
}

// probeServe splits the serving path in-process, with no socket: the IVF
// probe and the exact scan on the quantized store, Snapshot.Search, and the
// full handler (routing, JSON) through a recorder. Loopback latency minus
// the handler's is what TCP and the client cost.
func probeServe(x *lightne.Matrix, queryable []int, seed uint64, smoke bool, m map[string]float64) error {
	const queries = 1500
	r := rand.New(rand.NewSource(int64(seed) + 99))
	vs := make([]int, queries)
	for i := range vs {
		vs[i] = queryable[r.Intn(len(queryable))]
	}
	perQueryUS := func(fn func(v int) error) (float64, error) {
		t := time.Now()
		for _, v := range vs {
			if err := fn(v); err != nil {
				return 0, err
			}
		}
		return since(t) / queries * 1e6, nil
	}

	var ix serve.Index
	var err error
	m["quant.build_s"] = timeMedian(1, func() { ix, err = serve.NewIndex(x, "float32") })
	if err != nil {
		return err
	}
	m["quant.index_mb"] = float64(ix.MemoryBytes()) / mb
	var ivf *ann.Index
	cfg := ann.Config{Enabled: true} // what lightne-serve -ann builds
	if smoke {
		cfg.MinRows = smokeANNMinRows
	}
	m["ann.build_s"] = timeMedian(1, func() { ivf, err = serve.BuildANN(ix, cfg) })
	if err != nil {
		return err
	}
	f32 := quant.ToFloat32(x)
	if m["ann.exact_topk_us"], err = perQueryUS(func(v int) error { _, _, e := f32.TopK(v, knnK); return e }); err != nil {
		return err
	}
	if ivf != nil {
		if m["ann.search_us"], err = perQueryUS(func(v int) error { _, _, _, e := ivf.Search(f32, v, knnK, 0); return e }); err != nil {
			return err
		}
		st := ivf.Stats()
		m["ann.list_imbalance"] = float64(st.MaxList) * float64(st.NList) / float64(st.Rows)
	}

	store := serve.NewStore()
	snap := store.PublishWithANN(ix, ivf, 0)
	var scanned int
	if m["serve.search_us"], err = perQueryUS(func(v int) error {
		_, _, s, _, e := snap.Search(v, knnK)
		scanned += s
		return e
	}); err != nil {
		return err
	}
	m["ann.scanned_frac"] = float64(scanned) / queries / float64(ix.Rows()-1)

	h := serve.New(store).Handler()
	m["serve.handler_us"], err = perQueryUS(func(v int) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/neighbors?vertex="+strconv.Itoa(v)+"&k="+strconv.Itoa(knnK), nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process handler answered %d", rec.Code)
		}
		return nil
	})
	return err
}
