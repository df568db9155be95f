// Command perfbench is the repository's end-to-end benchmark. It starts an
// in-process coda server on loopback TCP, wired as cmd/coda-server wires
// it but with durable log: backends for the DARR and the home store, and
// drives it with closed-loop cooperative searches: one analyst searches
// cold and publishes to the DARR, a second repeats the search warm. It
// checks every output, then prints a report and, as its last line, one
// JSON object with the run's metrics:
//
//	perfbench -workload regression-teg -seed 1 -seconds 30 -trace 0
//
// With -trace 1 the benchmark's own decorators time the public calls into
// each layer (core, mlmodels, nnmodels, dataset, httpapi, darr, persist,
// store, the Go runtime) and the per-layer metrics are printed instead;
// traced rounds alternate with untraced ones so the tracing overhead is
// measured too. BENCHMARK.json lists the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/httpapi"
	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/store"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every round's data derives from it")
	seconds := flag.Float64("seconds", 10, "how long the timed loop runs, in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the run's durable data and span files")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traced == 1
	cfg.out = os.Stdout
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	out      io.Writer // human-readable report
	// darrDelay slows every DARR persist batch write; the self-test uses
	// it to check that the benchmark notices a slower layer.
	darrDelay time.Duration
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupRepeats is how many times set-up is timed; setup_s is the median.
const setupRepeats = 21

// analyst is one client of the server with its own keep-alive connection
// and its own copies of the search graph.
type analyst struct {
	name   string
	hc     *http.Client
	tr     *http.Transport
	c      *httpapi.Client // pulls; each search gets a client of its own
	rep    *store.Replica
	plain  *core.Graph
	timed  *core.Graph   // estimators wrapped in decorators (traced runs)
	search atomic.Uint64 // span of the search in progress, for the estimators
	latest []byte        // update-reanalytics: the version pulled for the next round
}

// coldRun is a cold search and its input.
type coldRun struct {
	ds  *dataset.Dataset
	res *core.SearchResult
}

// roundTimes holds the timings one round produced.
type roundTimes struct {
	cold, sync       time.Duration
	hasCold, hasSync bool
	warm             []time.Duration
}

type bench struct {
	cfg config
	wl  workload
	ctx context.Context
	rec *recorder
	dsn serverDSNs
	srv *server

	alice, bob *analyst
	owner      *httpapi.Client
	data       *ownerData
	last       *coldRun // the latest cold search

	mu        sync.Mutex
	attempted map[string]int64
	failed    int64
	problems  []string

	cold, warm, syncs, rounds samples
	coldTraced, coldUntraced  samples
	tracedRounds              int
	maxActiveClaims           int
	darrLookups, darrHits     int
	goAlloc, goGCs, goPauseNs uint64
}

func (b *bench) attempt(kind string, n int) {
	b.mu.Lock()
	b.attempted[kind] += int64(n)
	b.mu.Unlock()
}

// fail counts one failed operation or check and keeps its message.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

func run(cfg config) (*result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	// The program's own instrumentation stays at coda-server's and
	// coda-client's defaults in both runs.
	if err := obs.SetupDefaultLogger("info", "text"); err != nil {
		return nil, err
	}
	trace.SetSampleRate(1)
	trace.SetSlowThreshold(500 * time.Millisecond)

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{cfg: cfg, wl: wl, ctx: context.Background(), rec: newRecorder(), attempted: map[string]int64{}}
	b.rec.darrDelay = cfg.darrDelay
	b.dsn = serverDSNs{darr: "log:" + filepath.Join(dir, "darr"), store: "log:" + filepath.Join(dir, "store")}
	if cfg.trace || cfg.darrDelay > 0 {
		sel := registerRecorder(b.rec)
		b.dsn = serverDSNs{
			darr:  persistScheme + ":" + filepath.Join(dir, "darr") + "?layer=darr&" + sel,
			store: persistScheme + ":" + filepath.Join(dir, "store") + "?layer=store&" + sel,
		}
	}
	httpBefore, status5xxBefore := httpCounts()

	b.alice, b.bob = &analyst{name: "alice", rep: store.NewReplica()}, &analyst{name: "bob", rep: store.NewReplica()}
	for _, a := range []*analyst{b.alice, b.bob} {
		if a.plain, err = wl.graph(cfg.seed); err != nil {
			return nil, err
		}
		if cfg.trace {
			g, err := wl.graph(cfg.seed)
			if err != nil {
				return nil, err
			}
			a.timed = wrapGraph(g, b.rec, &a.search)
		}
	}
	if wl.concurrent {
		if b.data, err = newOwnerData(cfg.seed); err != nil {
			return nil, err
		}
	}
	if err := b.start(); err != nil {
		return nil, err
	}
	defer func() {
		if b.srv != nil {
			b.stop()
		}
	}()

	// Warm-up: fills the durable state that set-up replays. A traced run
	// traces it, so the reference check below also covers the decorators.
	for r := 0; r < wl.warmup; r++ {
		b.rec.on.Store(cfg.trace)
		if _, err := b.round(r, cfg.trace); err != nil {
			return nil, err
		}
		b.rec.on.Store(false)
		b.checkClaims(false)
		if r == 0 {
			b.checkReference()
		}
	}

	setup, err := b.restart()
	if err != nil {
		return nil, err
	}
	b.rec.reset()

	// The timed loop. A traced run traces every other round.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	var peak atomic.Uint64
	stopHeap := sampleHeap(&peak)
	defer stopHeap()
	start := time.Now()
	for r := wl.warmup; r == wl.warmup || time.Since(start) < cfg.seconds; r++ {
		traced := cfg.trace && (r-wl.warmup)%2 == 0
		t0 := time.Now()
		rt, err := b.timedRound(r, traced)
		if err != nil {
			return nil, err
		}
		b.rounds.add(time.Since(t0))
		if len(b.rounds) == wl.heapRounds {
			stopHeap()
		}
		if rt.hasCold {
			b.cold.add(rt.cold)
			if traced {
				b.coldTraced.add(rt.cold)
			} else {
				b.coldUntraced.add(rt.cold)
			}
		}
		for _, d := range rt.warm {
			b.warm.add(d)
		}
		if rt.hasSync {
			b.syncs.add(rt.sync)
		}
	}
	stopHeap()
	runtime.ReadMemStats(&ms)
	allocPerRound := float64(ms.TotalAlloc-allocBefore) / float64(len(b.rounds))

	b.disconnect()
	records := b.srv.repo.Len()
	replayed := int64(0)
	if st, ok := b.srv.repo.PersistStats(); ok {
		replayed = st.OpenReplayedRecords
	}
	b.closeServer()
	httpAfter, status5xxAfter := httpCounts()
	b.attempt("http_requests", int(httpAfter-httpBefore))
	for i := int64(0); i < status5xxAfter-status5xxBefore; i++ {
		b.fail("HTTP 5xx response")
	}

	res := &result{Metrics: map[string]metric{}}
	if cfg.trace {
		b.layerMetrics(res.Metrics, records, replayed, dirSize(filepath.Join(dir, "darr")))
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := b.rec.writeSpans(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(cfg.out, "spans written to %s\n", path)
	} else {
		coldTail, _ := b.cold.tail()
		warmTail, _ := b.warm.tail()
		res.Metrics["cold_search_p50_s"] = metric{b.cold.median(), "s"}
		res.Metrics["cold_search_tail_s"] = metric{coldTail, "s"}
		res.Metrics["warm_search_p50_s"] = metric{b.warm.median(), "s"}
		res.Metrics["warm_search_tail_s"] = metric{warmTail, "s"}
		res.Metrics["rounds_per_s"] = metric{1 / b.rounds.mean(), "1/s"}
		res.Metrics["setup_s"] = metric{setup.median(), "s"}
		res.Metrics["alloc_mb_per_round"] = metric{allocPerRound / 1e6, "MB"}
		res.Metrics["peak_heap_mb"] = metric{float64(peak.Load()) / 1e6, "MB"}
	}
	for _, n := range b.attempted {
		res.Attempted += n
	}
	res.Failed = b.failed
	res.Correct = b.failed == 0
	b.report(res, setup)
	return res, nil
}

// start opens a fresh server and connects the analysts.
func (b *bench) start() error {
	var wrapStore func(store.ObjectStore) store.ObjectStore
	var wrapHandler func(http.Handler) http.Handler
	if b.cfg.trace {
		wrapStore = func(s store.ObjectStore) store.ObjectStore { return timedObjectStore{s, b.rec} }
		wrapHandler = func(h http.Handler) http.Handler { return tracingHandler{h, b.rec} }
	}
	srv, err := openServer(b.dsn, wrapStore, wrapHandler)
	if err != nil {
		return err
	}
	b.srv = srv
	for _, a := range []*analyst{b.alice, b.bob} {
		b.connect(a)
	}
	b.owner = httpapi.NewClient(srv.url, "owner")
	b.owner.HTTP = b.alice.hc
	return nil
}

func (b *bench) connect(a *analyst) {
	var wrap func(http.RoundTripper) http.RoundTripper
	if b.cfg.trace {
		wrap = func(rt http.RoundTripper) http.RoundTripper { return tracingTransport{rt, b.rec} }
	}
	a.hc, a.tr = newHTTPClient(wrap)
	a.c = newClient(b.srv.url, a.name, a.hc)
}

// disconnect drops the analysts' connections.
func (b *bench) disconnect() {
	for _, a := range []*analyst{b.alice, b.bob} {
		a.tr.CloseIdleConnections()
	}
}

// stop disconnects the analysts and closes the server.
func (b *bench) stop() {
	b.disconnect()
	b.closeServer()
}

func (b *bench) closeServer() {
	if err := b.srv.close(); err != nil {
		b.fail("closing server: %v", err)
	}
	b.srv = nil
}

// restart closes the server the warm-up filled and times reopening it:
// replaying the DARR's and the store's logs and serving a first request.
// It then checks that the DARR came back whole.
func (b *bench) restart() (samples, error) {
	b.disconnect()
	records := b.srv.repo.Len()
	b.closeServer()
	var setup samples
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := b.start(); err != nil {
			return nil, err
		}
		setup.add(time.Since(t0))
		if i < setupRepeats-1 {
			b.stop()
		}
	}
	if n := b.srv.repo.Len(); n != records {
		b.fail("after restart the DARR holds %d records, want %d", n, records)
	}
	// A fresh analyst repeats the latest cold search against the reopened
	// DARR: every unit must come back from it.
	if b.last != nil {
		carol := &analyst{name: "carol", plain: b.alice.plain, rep: store.NewReplica()}
		b.connect(carol)
		warm, _ := b.search(carol, b.last.ds, false)
		if warm != nil {
			b.checkWarm("after restart", warm, b.last.res)
		}
		carol.tr.CloseIdleConnections()
	}
	return setup, nil
}

// timedRound runs one round of the timed loop, snapshotting what the
// traced-run metrics need around a traced round.
func (b *bench) timedRound(r int, traced bool) (roundTimes, error) {
	if !traced {
		rt, err := b.round(r, false)
		b.checkClaims(false)
		return rt, err
	}
	var before, after runtime.MemStats
	lookups0, hits0, _ := b.srv.repo.Stats()
	runtime.ReadMemStats(&before)
	b.rec.round.Store(int64(r))
	b.rec.on.Store(true)
	rt, err := b.round(r, true)
	b.rec.on.Store(false)
	runtime.ReadMemStats(&after)
	lookups1, hits1, _ := b.srv.repo.Stats()
	b.checkClaims(true)
	b.tracedRounds++
	b.darrLookups += lookups1 - lookups0
	b.darrHits += hits1 - hits0
	b.goAlloc += after.TotalAlloc - before.TotalAlloc
	b.goGCs += uint64(after.NumGC - before.NumGC)
	b.goPauseNs += after.PauseTotalNs - before.PauseTotalNs
	return rt, err
}

// checkClaims checks that no DARR claim outlives the round that took it.
func (b *bench) checkClaims(traced bool) {
	n := b.srv.repo.ActiveClaims()
	if n != 0 {
		b.fail("%d DARR claims active at the end of a round", n)
	}
	if traced && n > b.maxActiveClaims {
		b.maxActiveClaims = n
	}
}

func (b *bench) round(r int, traced bool) (roundTimes, error) {
	if b.wl.concurrent {
		return b.updateRound(r, traced)
	}
	return b.seqRound(r, traced)
}

// seqRound: alice searches a fresh dataset cold, then bob repeats the
// search warm, warmRepeats times.
func (b *bench) seqRound(r int, traced bool) (roundTimes, error) {
	var rt roundTimes
	ds, err := b.wl.data(b.cfg.seed, r)
	if err != nil {
		return rt, err
	}
	cold, d := b.search(b.alice, ds, traced)
	if cold == nil {
		return rt, nil
	}
	rt.cold, rt.hasCold = d, true
	b.last = &coldRun{ds, cold}
	for i := 0; i < b.wl.warmRepeats; i++ {
		warm, d := b.search(b.bob, ds.Clone(), traced)
		if warm != nil {
			rt.warm = append(rt.warm, d)
			b.checkWarm("warm repeat", warm, cold)
		}
	}
	return rt, nil
}

// updateRound: the owner puts version r of its data and alice pulls,
// parses and searches it cold, while bob parses version r-1 (pulled last
// round), repeats alice's previous search warm, then pulls version r.
func (b *bench) updateRound(r int, traced bool) (roundTimes, error) {
	var rt roundTimes
	if r > 0 {
		if err := b.data.slide(); err != nil {
			return rt, err
		}
	}
	data, err := b.data.csv()
	if err != nil {
		return rt, err
	}
	prev := b.last
	putDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if prev != nil && b.bob.latest != nil {
			if ds := b.readCSV(b.bob.latest); ds != nil {
				warm, d := b.search(b.bob, ds, traced)
				if warm != nil {
					rt.warm = append(rt.warm, d)
					b.checkWarm("warm repeat", warm, prev.res)
				}
			}
		}
		<-putDone
		if b.pull(b.bob, data) {
			b.bob.latest, _ = b.bob.rep.Data(objectKey)
		}
	}()
	t0 := time.Now()
	putOK := b.put(data)
	close(putDone)
	if putOK && b.pull(b.alice, data) {
		pulled, _ := b.alice.rep.Data(objectKey)
		if ds := b.readCSV(pulled); ds != nil {
			rt.sync, rt.hasSync = time.Since(t0), true
			cold, d := b.search(b.alice, ds, traced)
			if cold != nil {
				rt.cold, rt.hasCold = d, true
				b.last = &coldRun{ds, cold}
			}
		}
	}
	wg.Wait()
	return rt, nil
}

// search runs one cooperative search for an analyst, through the
// decorators when traced. Like coda-client search, it gives the search a
// client of its own and closes it once the search has returned; closing
// waits for every queued publish to land. The returned time covers the
// search and the close.
func (b *bench) search(a *analyst, ds *dataset.Dataset, traced bool) (*core.SearchResult, time.Duration) {
	opts := b.wl.options(ds, b.cfg.seed)
	c := newSearchClient(b.srv.url, a.name, a.hc)
	opts.Store, opts.SkipClaimed = c, true
	g, ctx := a.plain, b.ctx
	var id uint64
	var start int64
	if traced {
		opts.Store, g = timedStore{inner: c, rec: b.rec}, a.timed
		id, start = b.rec.begin()
		ctx = withSpan(ctx, id)
		a.search.Store(id)
	}
	t0 := time.Now()
	res, err := core.Search(ctx, g, ds, opts)
	if traced {
		a.search.Store(0)
		b.rec.finish(span{ID: id, Name: "core.search", Start: start})
	}
	cid, cstart := b.rec.begin()
	cerr := c.Close()
	d := time.Since(t0)
	b.rec.finish(span{ID: cid, Name: "httpapi.close", Start: cstart})
	b.attempt("searches", 1)
	if cerr != nil {
		b.fail("%s: closing the search's client: %v", a.name, cerr)
	}
	if err != nil {
		b.fail("%s: search: %v", a.name, err)
		return nil, d
	}
	b.attempt("units", len(res.Units))
	for _, u := range res.Units {
		if u.Err != "" || u.Degraded || u.Skipped {
			b.fail("%s: unit %s: err=%q degraded=%t skipped=%t", a.name, u.Spec, u.Err, u.Degraded, u.Skipped)
		}
	}
	if traced {
		b.recordSearch(res)
	}
	return res, d
}

func (b *bench) recordSearch(res *core.SearchResult) {
	p := res.Profile
	for name, v := range map[string]float64{
		"core.profile_total_s": p.Total.Seconds(),
		"core.compute_s":       p.Compute.Seconds(),
		"core.darr_wait_s":     p.DARRWait.Seconds(),
		"core.store_wait_s":    p.StoreWait.Seconds(),
		"core.queue_s":         p.Queue.Seconds(),
		"core.other_s":         p.Other.Seconds(),
		"core.units_computed":  float64(res.Computed),
		"core.units_from_darr": float64(res.CacheHits),
		"core.units_skipped":   float64(res.Skipped),
		"core.units_degraded":  float64(res.Degraded),
		"core.units_failed":    float64(len(res.Units) - res.Computed - res.CacheHits - res.Skipped),
		"core.prefix_hits":     float64(res.Prefix.Hits),
		"core.prefix_lookups":  float64(res.Prefix.Hits + res.Prefix.Misses),
		"core.prefix_fits":     float64(res.Prefix.Fits),
	} {
		b.rec.count(name, v)
	}
}

// put uploads the owner's next version.
func (b *bench) put(data []byte) bool {
	id, start := b.rec.begin()
	_, err := b.owner.PutObject(withSpan(b.ctx, id), objectKey, data)
	b.rec.finish(span{ID: id, Name: "httpapi.put_object", Start: start, In: int64(len(data))})
	b.attempt("puts", 1)
	if err != nil {
		b.fail("owner: put: %v", err)
		return false
	}
	return true
}

// pull syncs an analyst's replica and checks it now holds want.
func (b *bench) pull(a *analyst, want []byte) bool {
	id, start := b.rec.begin()
	wire0 := a.rep.BytesReceived()
	err := a.c.PullObject(withSpan(b.ctx, id), a.rep, objectKey)
	b.rec.finish(span{ID: id, Name: "httpapi.pull_object", Start: start})
	b.attempt("pulls", 1)
	if err != nil {
		b.fail("%s: pull: %v", a.name, err)
		return false
	}
	b.rec.count("store.wire_bytes", float64(a.rep.BytesReceived()-wire0))
	b.rec.count("store.object_bytes", float64(len(want)))
	if got, _ := a.rep.Data(objectKey); !bytes.Equal(got, want) {
		b.fail("%s: pulled %d bytes that differ from the %d bytes put", a.name, len(got), len(want))
		return false
	}
	return true
}

func (b *bench) readCSV(data []byte) *dataset.Dataset {
	id, start := b.rec.begin()
	ds, err := dataset.ReadCSV(bytes.NewReader(data), "y")
	b.rec.finish(span{ID: id, Name: "dataset.read_csv", Start: start, In: int64(len(data))})
	if err != nil {
		b.fail("parsing pulled CSV: %v", err)
		return nil
	}
	return ds
}

// checkReference checks, once per run and outside the timed loop, that
// the first cold search scored every unit exactly as a search with no
// store and no decorators does on the same data.
func (b *bench) checkReference() {
	if b.last == nil {
		return
	}
	opts := b.wl.options(b.last.ds, b.cfg.seed)
	ref, err := core.Search(b.ctx, b.alice.plain, b.last.ds, opts)
	if err != nil {
		b.fail("reference search: %v", err)
		return
	}
	if d, r := unitsDigest(b.last.res), unitsDigest(ref); d != r {
		b.fail("cold search units (digest %s) differ from the storeless search (digest %s)", d, r)
	}
	if !sameBest(b.last.res, ref) {
		b.fail("cold search best %s differs from the storeless search", b.last.res.Best.Spec)
	}
	fmt.Fprintf(b.cfg.out, "units_digest=%s (first cold search: unit specs, errors and score bits)\n", unitsDigest(ref))
}

// checkWarm checks that a warm search took every unit from the DARR and
// reproduced the cold search's means and best pipeline bit for bit.
func (b *bench) checkWarm(what string, warm, cold *core.SearchResult) {
	if warm.CacheHits != len(warm.Units) {
		b.fail("%s: %d of %d units from the DARR", what, warm.CacheHits, len(warm.Units))
	}
	if len(warm.Units) != len(cold.Units) {
		b.fail("%s: %d units, cold search had %d", what, len(warm.Units), len(cold.Units))
		return
	}
	for i, u := range warm.Units {
		c := cold.Units[i]
		if u.Spec != c.Spec || math.Float64bits(u.Mean) != math.Float64bits(c.Mean) {
			b.fail("%s: unit %s mean %v, cold search had %s mean %v", what, u.Spec, u.Mean, c.Spec, c.Mean)
		}
	}
	if !sameBest(warm, cold) {
		b.fail("%s: best pipeline differs from the cold search's", what)
	}
}

func sameBest(a, b *core.SearchResult) bool {
	if a.Best == nil || b.Best == nil {
		return a.Best == nil && b.Best == nil
	}
	return a.Best.Spec == b.Best.Spec && math.Float64bits(a.Best.Mean) == math.Float64bits(b.Best.Mean)
}

// unitsDigest hashes every unit's spec, error, per-fold scores and mean.
func unitsDigest(res *core.SearchResult) string {
	h := sha256.New()
	for _, u := range res.Units {
		fmt.Fprintf(h, "%s\x00%s\x00%x", u.Spec, u.Err, math.Float64bits(u.Mean))
		for _, s := range u.Scores {
			fmt.Fprintf(h, ",%x", math.Float64bits(s))
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// httpCounts reads the server's own request counters: all requests, and
// those answered 5xx.
func httpCounts() (requests, status5xx int64) {
	var buf bytes.Buffer
	obs.WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "coda_http_requests_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			continue
		}
		requests += int64(v)
		if strings.Contains(line, `code="5`) {
			status5xx += int64(v)
		}
	}
	return requests, status5xx
}

// sampleHeap records, every 10ms until the returned stop function is
// called, the largest amount of memory the Go runtime holds from the
// operating system: everything it has mapped minus what it has released.
// The heap dominates it. Stop waits for the sampler and may be called more
// than once.
func sampleHeap(peak *atomic.Uint64) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	s := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() {
		rtmetrics.Read(s)
		if v := s[0].Value.Uint64() - s[1].Value.Uint64(); v > peak.Load() {
			peak.Store(v)
		}
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	read()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-exited
			read()
		})
	}
}

func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
