package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lightne/internal/core"
	"lightne/internal/dynamic"
	"lightne/internal/faultinject"
	"lightne/internal/graph"
)

const ringN = 24

// newRingIngester builds a dynamic embedder over a small ring graph, wires
// it to a fresh store, and publishes the initial snapshot.
func newRingIngester(t *testing.T, cfg IngestConfig) (*Ingester, *Store) {
	t.Helper()
	var arcs []graph.Edge
	for i := 0; i < ringN; i++ {
		arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32((i + 1) % ringN)})
		arcs = append(arcs, graph.Edge{U: uint32(i), V: uint32((i + 2) % ringN)})
	}
	g, err := graph.FromEdges(ringN, arcs, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultConfig(4)
	ecfg.T = 3
	ecfg.Seed = 7
	emb, err := dynamic.New(g, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	ing := NewIngester(emb, store, cfg)
	if err := ing.PublishNow(); err != nil {
		t.Fatal(err)
	}
	return ing, store
}

// ringBatch returns the j-th test batch: one new edge between existing ring
// vertices, distinct from the ring arcs and from other batches.
func ringBatch(j int) []graph.Edge {
	return []graph.Edge{{U: uint32(j % ringN), V: uint32((j + 7) % ringN)}}
}

// fastBackoff keeps supervised tests quick without changing the logic.
func fastBackoff(cfg IngestConfig) IngestConfig {
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 4 * time.Millisecond
	return cfg
}

// TestIngesterSurvivesTransientFaults: three consecutive injected apply
// failures must be absorbed by the retry loop (refresh + re-apply), and the
// batch still lands and publishes — no restart, no drop, no degradation.
func TestIngesterSurvivesTransientFaults(t *testing.T) {
	inj := faultinject.New()
	inj.FailN(faultinject.IngestApply, 3, nil)
	ing, store := newRingIngester(t, fastBackoff(IngestConfig{Hooks: inj}))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- ing.Run(ctx) }()

	if err := ing.Submit(ctx, ringBatch(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for store.Snapshot().Version < 2 {
		select {
		case <-deadline:
			t.Fatalf("no snapshot published; status %+v", ing.Status())
		case err := <-runErr:
			t.Fatalf("ingester stopped early: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	st := ing.Status()
	if st.State != "running" || ing.Degraded() {
		t.Fatalf("degraded after transient faults: %+v", st)
	}
	if st.Retries < 3 {
		t.Fatalf("retries %d, want >= 3 (one per injected failure)", st.Retries)
	}
	if st.Restarts != 0 || st.BatchesDropped != 0 {
		t.Fatalf("transient faults escalated: %+v", st)
	}
	if st.BatchesApplied < 1 {
		t.Fatalf("batch never applied: %+v", st)
	}
}

// TestIngesterDegradesAfterMaxRestarts: a persistent apply fault exhausts
// the restart budget; the ingester then reports degraded through Status,
// /healthz, and /metrics, Submit fails fast with ErrDegraded — and the last
// published snapshot keeps answering queries.
func TestIngesterDegradesAfterMaxRestarts(t *testing.T) {
	inj := faultinject.New()
	inj.FailAlways(faultinject.IngestApply, nil)
	ing, store := newRingIngester(t, fastBackoff(IngestConfig{
		MaxRetries:  1,
		MaxRestarts: 2,
		Hooks:       inj,
	}))
	srv := New(store, WithIngester(ing))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- ing.Run(ctx) }()

	// Each submitted batch burns one supervisor restart; keep feeding until
	// the budget (2) is exceeded and degraded mode engages.
	deadline := time.After(30 * time.Second)
	for j := 0; !ing.Degraded(); j++ {
		if err := ing.Submit(ctx, ringBatch(j)); errors.Is(err, ErrDegraded) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		select {
		case <-deadline:
			t.Fatalf("never degraded; status %+v", ing.Status())
		case <-time.After(2 * time.Millisecond):
		}
	}
	for !ing.Degraded() {
		time.Sleep(time.Millisecond)
	}
	if err := ing.Submit(ctx, ringBatch(99)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Submit after degradation returned %v, want ErrDegraded", err)
	}

	st := ing.Status()
	if st.State != "degraded" || st.Reason == "" {
		t.Fatalf("status %+v, want degraded with reason", st)
	}
	if st.Restarts != 3 {
		t.Fatalf("restarts %d, want MaxRestarts+1 = 3", st.Restarts)
	}

	// The read path is untouched: last snapshot serves, health says degraded
	// (but stays 200 so load balancers keep routing reads), metrics export
	// the state.
	var h HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz %d, want 200 while degraded", code)
	}
	if h.Status != "degraded" || h.Reason == "" || h.IngestRestarts != 3 {
		t.Fatalf("health %+v", h)
	}
	var nb NeighborsResponse
	if code := getJSON(t, ts.URL+"/v1/neighbors?vertex=3&k=5", &nb); code != http.StatusOK {
		t.Fatalf("query while degraded: %d", code)
	}
	if len(nb.Neighbors) != 5 || nb.SnapshotVersion != 1 {
		t.Fatalf("degraded query response %+v", nb)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"lightne_ingest_degraded 1", "lightne_ingest_restarts_total 3"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v after degradation", err)
	}
}

// TestIngesterDrainsQueueOnCancel: batches accepted by Submit before
// cancellation are applied and published before Run returns — the delivery
// guarantee documented on Submit.
func TestIngesterDrainsQueueOnCancel(t *testing.T) {
	ing, store := newRingIngester(t, IngestConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	const batches = 3
	for j := 0; j < batches; j++ {
		if err := ing.Submit(ctx, ringBatch(j)); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := ing.Run(ctx); err != nil {
		t.Fatalf("Run returned %v", err)
	}
	st := ing.Status()
	if st.BatchesApplied != batches || st.BatchesDropped != 0 {
		t.Fatalf("drain lost batches: %+v", st)
	}
	if store.Snapshot().Version < 2 {
		t.Fatalf("drained batches not published: version %d", store.Snapshot().Version)
	}
}

// TestConcurrentQueriesDuringSupervisorRestarts: while injected faults force
// retries and a supervisor restart, concurrent readers must only ever see
// complete snapshots with monotonically non-decreasing versions.
func TestConcurrentQueriesDuringSupervisorRestarts(t *testing.T) {
	inj := faultinject.New()
	// Batch 1 escalates past its single retry (calls 1-2 fail) and costs a
	// restart; batch 2 recovers after one retry (call 3 fails, call 4 ok).
	inj.FailN(faultinject.IngestApply, 3, nil)
	ing, store := newRingIngester(t, fastBackoff(IngestConfig{
		MaxRetries: 1,
		Hooks:      inj,
	}))
	srv := New(store, WithIngester(ing))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- ing.Run(ctx) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	queryErr := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var nb NeighborsResponse
				if code := getJSON(t, ts.URL+"/v1/neighbors?vertex=1&k=4", &nb); code != http.StatusOK {
					select {
					case queryErr <- http.StatusText(code):
					default:
					}
					return
				}
				if nb.SnapshotVersion < lastVersion {
					select {
					case queryErr <- "snapshot version went backwards":
					default:
					}
					return
				}
				lastVersion = nb.SnapshotVersion
				if len(nb.Neighbors) != 4 {
					select {
					case queryErr <- "short neighbor list":
					default:
					}
					return
				}
			}
		}(w)
	}

	for j := 0; j < 2; j++ {
		if err := ing.Submit(ctx, ringBatch(j)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(30 * time.Second)
	for store.Snapshot().Version < 2 {
		select {
		case <-deadline:
			t.Fatalf("no post-restart snapshot; status %+v", ing.Status())
		case err := <-runErr:
			t.Fatalf("ingester stopped: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-queryErr:
		t.Fatalf("reader observed inconsistency during restarts: %s", msg)
	default:
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	st := ing.Status()
	if st.Restarts < 1 {
		t.Fatalf("test never exercised a restart: %+v", st)
	}
	if st.State != "running" {
		t.Fatalf("status %+v, want running", st)
	}
}

// TestPanicRecoveryMiddleware: a panicking handler answers 500 and bumps the
// panic counter instead of unwinding into net/http.
func TestPanicRecoveryMiddleware(t *testing.T) {
	store := NewStore()
	srv := New(store)
	h := srv.instrument(epNeighbors, srv.recovered(func(w http.ResponseWriter, r *http.Request) {
		panic("injected handler bug")
	}))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/neighbors?vertex=0", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "injected handler bug") {
		t.Fatalf("body %q", rec.Body.String())
	}
	if srv.Metrics().Panics() != 1 {
		t.Fatalf("panics counter %d", srv.Metrics().Panics())
	}
	// The next request is unaffected.
	rec = httptest.NewRecorder()
	ok := srv.instrument(epNeighbors, srv.recovered(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	ok(rec, httptest.NewRequest(http.MethodGet, "/v1/neighbors?vertex=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic request code %d", rec.Code)
	}
}

// TestLoadSheddingMiddleware: beyond MaxInFlight concurrent queries, excess
// requests answer 503 with a Retry-After hint; slots free up as requests
// complete.
func TestLoadSheddingMiddleware(t *testing.T) {
	store := NewStore()
	srv := New(store, WithLimits(Limits{MaxInFlight: 1, RetryAfter: 2 * time.Second}))
	release := make(chan struct{})
	started := make(chan struct{})
	h := srv.shedded(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
	})

	firstDone := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/v1/neighbors?vertex=0", nil))
		firstDone <- rec.Code
	}()
	<-started // the single slot is now held

	rec := httptest.NewRecorder()
	srv.shedded(func(w http.ResponseWriter, r *http.Request) {
		t.Error("shed request must not reach the handler")
	})(rec, httptest.NewRequest(http.MethodGet, "/v1/neighbors?vertex=0", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", got)
	}
	if srv.Metrics().Shed() != 1 {
		t.Fatalf("shed counter %d", srv.Metrics().Shed())
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("in-flight request got %d", code)
	}
	// Slot released: the next request is admitted.
	rec = httptest.NewRecorder()
	srv.shedded(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})(rec, httptest.NewRequest(http.MethodGet, "/v1/neighbors?vertex=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release request got %d", rec.Code)
	}
}

// TestRequestTimeoutMiddleware: WithLimits attaches a deadline to each query
// request's context.
func TestRequestTimeoutMiddleware(t *testing.T) {
	store := NewStore()
	srv := New(store, WithLimits(Limits{RequestTimeout: 250 * time.Millisecond}))
	var hadDeadline bool
	h := srv.shedded(func(w http.ResponseWriter, r *http.Request) {
		_, hadDeadline = r.Context().Deadline()
		w.WriteHeader(http.StatusOK)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/v1/neighbors?vertex=0", nil))
	if !hadDeadline {
		t.Fatal("request context carried no deadline")
	}
	// Health endpoints bypass shedding and deadlines entirely: even at the
	// concurrency limit a probe must see the server alive.
	srv2 := New(store, WithLimits(Limits{MaxInFlight: 1}))
	srv2.inflight <- struct{}{} // saturate the limiter
	rec = httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code == http.StatusServiceUnavailable && strings.Contains(rec.Body.String(), "concurrency limit") {
		t.Fatal("healthz was shed")
	}
}
