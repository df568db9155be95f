package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/persist"
	"coda/internal/store"
)

// span is one call into a layer's public functions, timed from outside
// by one of the benchmark's decorators.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	In     int64  `json:"in_bytes,omitempty"`
	Out    int64  `json:"out_bytes,omitempty"`
	Status int    `json:"status,omitempty"`
	Self   int64  `json:"self_ns"` // filled in when the spans are written out
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder collects spans and counters in memory. The decorators record
// only while on is set, so one process can interleave traced rounds with
// untraced ones and price the tracing itself.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	round atomic.Int64
	ids   atomic.Uint64

	// serving maps a goroutine id to the server span it is handling, so
	// store and persist calls made inside a handler get it as parent.
	serving sync.Map

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	// darrOpen is how long the last open of the DARR's log took.
	darrOpen time.Duration
	// darrDelay is added to every DARR persist batch write: the self-test's
	// deliberately slowed layer.
	darrDelay time.Duration
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]float64{}}
}

// reset drops everything recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.counts = map[string]float64{}
	r.mu.Unlock()
}

// begin opens a span, returning id 0 when the recorder is off.
func (r *recorder) begin() (uint64, int64) {
	if !r.on.Load() {
		return 0, 0
	}
	return r.ids.Add(1), r.now()
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// finish closes the span begin opened, ending it now unless its End is
// already set; a zero id is ignored.
func (r *recorder) finish(s span) {
	if s.ID == 0 {
		return
	}
	if s.End == 0 {
		s.End = r.now()
	}
	s.Round = int(r.round.Load())
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// count adds v to a named counter while the recorder is on.
func (r *recorder) count(name string, v float64) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// goid returns the current goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// handlerParent is the server span the calling goroutine is serving.
func (r *recorder) handlerParent() uint64 {
	if v, ok := r.serving.Load(goid()); ok {
		return v.(uint64)
	}
	return 0
}

// estimatorLayer names the layer an estimator belongs to.
func estimatorLayer(name string) string {
	switch name {
	case "randomforest":
		return "mlmodels.forest"
	case "decisiontree":
		return "mlmodels.tree"
	case "knn":
		return "mlmodels.knn"
	case "linearregression", "ridge":
		return "mlmodels.linear"
	case "lstm", "deeplstm":
		return "nnmodels.lstm"
	case "cnn", "deepcnn":
		return "nnmodels.cnn"
	case "dnn", "deepdnn":
		return "nnmodels.dnn"
	case "zeromodel", "armodel":
		return "nnmodels.stat"
	}
	return "estimator." + name
}

// timedEstimator times Fit and Predict of the estimator it wraps. Every
// other method passes through, so specs, parameters and DARR keys are
// unchanged.
type timedEstimator struct {
	core.Estimator
	rec    *recorder
	layer  string
	search *atomic.Uint64 // the owning analyst's current search span
}

// timedViewEstimator keeps core.WindowViewConsumer for estimators that
// implement it, so the pipeline takes the same fused window-view path.
type timedViewEstimator struct{ *timedEstimator }

func (e timedViewEstimator) ConsumesWindowView() bool {
	return e.Estimator.(core.WindowViewConsumer).ConsumesWindowView()
}

func wrapEstimator(est core.Estimator, rec *recorder, search *atomic.Uint64) core.Estimator {
	te := &timedEstimator{Estimator: est, rec: rec, layer: estimatorLayer(est.Name()), search: search}
	if _, ok := est.(core.WindowViewConsumer); ok {
		return timedViewEstimator{te}
	}
	return te
}

// wrapGraph replaces every estimator of g's final stage with a timed one.
func wrapGraph(g *core.Graph, rec *recorder, search *atomic.Uint64) *core.Graph {
	stages := g.Stages()
	for _, n := range stages[len(stages)-1].Options {
		n.Estimator = wrapEstimator(n.Estimator, rec, search)
	}
	return g
}

func (e *timedEstimator) Fit(ds *dataset.Dataset) error {
	id, start := e.rec.begin()
	err := e.Estimator.Fit(ds)
	e.rec.finish(span{ID: id, Parent: e.search.Load(), Name: e.layer + ".fit", Start: start})
	return err
}

func (e *timedEstimator) Predict(ds *dataset.Dataset) ([]float64, error) {
	id, start := e.rec.begin()
	y, err := e.Estimator.Predict(ds)
	e.rec.finish(span{ID: id, Parent: e.search.Load(), Name: e.layer + ".predict", Start: start})
	return y, err
}

func (e *timedEstimator) Clone() core.Estimator {
	return wrapEstimator(e.Estimator.Clone(), e.rec, e.search)
}

// batchStore is what a search needs from its DARR client: the batched
// protocol plus the optional release and flush hooks core.Search looks for.
type batchStore interface {
	core.BatchResultStore
	core.Flusher
}

// timedStore times the DARR client calls core.Search makes. It implements
// core.BatchResultStore, core.ClaimReleaser and core.Flusher, as the
// httpapi.Client it wraps does, so the search takes the same path.
type timedStore struct {
	inner batchStore
	rec   *recorder
}

func (s timedStore) call(ctx context.Context, name string, fn func(ctx context.Context) error) {
	id, start := s.rec.begin()
	err := fn(withSpan(ctx, id))
	s.rec.finish(span{ID: id, Parent: spanFrom(ctx), Name: name, Start: start})
	if err != nil {
		s.rec.count("httpapi.errors", 1)
	}
}

func (s timedStore) Lookup(ctx context.Context, key string) (score float64, ok bool, err error) {
	s.call(ctx, "httpapi.lookup", func(ctx context.Context) error {
		score, ok, err = s.inner.Lookup(ctx, key)
		return err
	})
	return
}

func (s timedStore) Claim(ctx context.Context, key string) (ok bool, err error) {
	s.call(ctx, "httpapi.claim", func(ctx context.Context) error {
		ok, err = s.inner.Claim(ctx, key)
		return err
	})
	return
}

func (s timedStore) Publish(ctx context.Context, key string, score float64, explanation string) (err error) {
	s.call(ctx, "httpapi.publish", func(ctx context.Context) error {
		err = s.inner.Publish(ctx, key, score, explanation)
		return err
	})
	return
}

func (s timedStore) LookupBatch(ctx context.Context, keys []string) (out map[string]float64, err error) {
	s.call(ctx, "httpapi.lookup_batch", func(ctx context.Context) error {
		out, err = s.inner.LookupBatch(ctx, keys)
		return err
	})
	s.rec.count("darr.lookups", float64(len(keys)))
	s.rec.count("darr.hits", float64(len(out)))
	return
}

func (s timedStore) ClaimBatch(ctx context.Context, keys []string) (out map[string]bool, err error) {
	s.call(ctx, "httpapi.claim_batch", func(ctx context.Context) error {
		out, err = s.inner.ClaimBatch(ctx, keys)
		return err
	})
	granted := 0
	for _, ok := range out {
		if ok {
			granted++
		}
	}
	s.rec.count("darr.keys_claimed", float64(len(keys)))
	s.rec.count("darr.claims_granted", float64(granted))
	return
}

func (s timedStore) Release(ctx context.Context, key string) (err error) {
	s.call(ctx, "httpapi.release", func(ctx context.Context) error {
		err = s.inner.Release(ctx, key)
		return err
	})
	return
}

func (s timedStore) Flush(ctx context.Context) (err error) {
	s.call(ctx, "httpapi.flush", func(ctx context.Context) error {
		err = s.inner.Flush(ctx)
		return err
	})
	return
}

// spanHeader carries the client span id to the server's handler span.
const spanHeader = "X-Perfbench-Span"

// routeOf groups request paths into the routes the benchmark reports.
func routeOf(path string) string {
	switch {
	case path == "/darr/batch/lookup":
		return "darr_lookup"
	case path == "/darr/batch/claims":
		return "darr_claims"
	case path == "/darr/batch/records":
		return "darr_records"
	case strings.HasPrefix(path, "/darr/"):
		return "darr_other"
	case strings.HasPrefix(path, "/store/objects/"):
		return "store_objects"
	}
	return "other"
}

// routes lists every route routeOf can return that carries cooperative
// traffic.
var routes = []string{"darr_lookup", "darr_claims", "darr_records", "darr_other", "store_objects"}

// tracingTransport times each HTTP exchange on the client side, from the
// start of the round trip until the caller closes the response body.
type tracingTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, start := t.rec.begin()
	if id == 0 {
		return t.inner.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	sp := span{ID: id, Parent: spanFrom(req.Context()), Name: "httpapi.client." + routeOf(req.URL.Path), Start: start}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.finish(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &finishOnClose{ReadCloser: resp.Body, finish: func() { t.rec.finish(sp) }}
	return resp, nil
}

type finishOnClose struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (f *finishOnClose) Close() error {
	err := f.ReadCloser.Close()
	f.once.Do(f.finish)
	return err
}

// tracingHandler times each request inside the server, around the
// httpapi.Server handler, and counts the bytes each way. A request's
// server time ends where the handler starts its last response write:
// work the handler does after that (its metrics and logs) overlaps the
// client reading the reply, so it is not part of the client's wait.
type tracingHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, start := h.rec.begin()
	if id == 0 {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	g := goid()
	h.rec.serving.Store(g, id)
	cw := &countingWriter{ResponseWriter: w, rec: h.rec, status: http.StatusOK}
	h.inner.ServeHTTP(cw, r)
	h.rec.serving.Delete(g)
	h.rec.finish(span{ID: id, Parent: parent, Name: "httpapi.server." + routeOf(r.URL.Path),
		Start: start, End: cw.lastWrite, In: max(r.ContentLength, 0), Out: cw.n, Status: cw.status})
}

// countingWriter records the status, counts response bytes and notes
// when the last write started; Flush and Unwrap keep streaming responses
// working through it.
type countingWriter struct {
	http.ResponseWriter
	rec       *recorder
	status    int
	n         int64
	lastWrite int64
}

func (w *countingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.lastWrite = w.rec.now()
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// timedObjectStore times the object store's Put and Get as the HTTP
// handlers and the lease manager call them.
type timedObjectStore struct {
	store.ObjectStore
	rec *recorder
}

func (s timedObjectStore) Put(key string, data []byte) (uint64, error) {
	id, start := s.rec.begin()
	v, err := s.ObjectStore.Put(key, data)
	s.rec.finish(span{ID: id, Parent: s.rec.handlerParent(), Name: "store.put", Start: start, In: int64(len(data))})
	return v, err
}

func (s timedObjectStore) Get(key string, have uint64) (*store.Reply, error) {
	id, start := s.rec.begin()
	reply, err := s.ObjectStore.Get(key, have)
	sp := span{ID: id, Parent: s.rec.handlerParent(), Name: "store.get", Start: start}
	if err == nil {
		sp.Out = int64(reply.WireBytes())
		if reply.IsDelta() {
			s.rec.count("store.delta_replies", 1)
		}
	}
	s.rec.finish(sp)
	return reply, err
}

// persistScheme is the DSN scheme of the benchmark's persist wrapper:
// "perfbench:<dir>?layer=darr&rec=<id>" opens "log:<dir>" and times its
// calls into the recorder registered under id.
const persistScheme = "perfbench"

var (
	recordersMu sync.Mutex
	recorders   = map[string]*recorder{}
	recorderIDs atomic.Int64
)

// registerRecorder makes rec reachable from persist DSNs and returns the
// DSN parameters that select it.
func registerRecorder(rec *recorder) string {
	id := strconv.FormatInt(recorderIDs.Add(1), 10)
	recordersMu.Lock()
	recorders[id] = rec
	recordersMu.Unlock()
	return "rec=" + id
}

func init() {
	persist.Register(persistScheme, func(dir string, params url.Values) (persist.KV, error) {
		recordersMu.Lock()
		rec := recorders[params.Get("rec")]
		recordersMu.Unlock()
		layer := params.Get("layer")
		if rec == nil || (layer != "darr" && layer != "store") {
			return nil, fmt.Errorf("perfbench DSN needs a registered rec and layer=darr|store")
		}
		start := time.Now()
		kv, err := persist.Open("log:" + dir)
		if err != nil {
			return nil, err
		}
		t := &timedKV{KV: kv, rec: rec, layer: "persist." + layer}
		if layer == "darr" {
			rec.mu.Lock()
			rec.darrOpen = time.Since(start)
			rec.mu.Unlock()
			t.delay = rec.darrDelay
		}
		return t, nil
	})
}

// timedKV times batch writes, reads and deletes of the log: backend it
// wraps; everything else passes through.
type timedKV struct {
	persist.KV
	rec   *recorder
	layer string
	delay time.Duration
}

func (k *timedKV) PutBatch(items []persist.Item) error {
	if k.delay > 0 {
		time.Sleep(k.delay)
	}
	id, start := k.rec.begin()
	err := k.KV.PutBatch(items)
	var n int64
	for _, it := range items {
		n += int64(len(it.Key) + len(it.Value))
	}
	k.rec.finish(span{ID: id, Parent: k.rec.handlerParent(), Name: k.layer + ".put_batch", Start: start, In: n})
	k.rec.count(k.layer+".keys_put", float64(len(items)))
	return err
}

func (k *timedKV) GetBatch(keys []string) (map[string][]byte, error) {
	id, start := k.rec.begin()
	out, err := k.KV.GetBatch(keys)
	k.rec.finish(span{ID: id, Parent: k.rec.handlerParent(), Name: k.layer + ".get_batch", Start: start})
	return out, err
}

func (k *timedKV) Delete(keys ...string) error {
	id, start := k.rec.begin()
	err := k.KV.Delete(keys...)
	k.rec.finish(span{ID: id, Parent: k.rec.handlerParent(), Name: k.layer + ".delete", Start: start})
	k.rec.count(k.layer+".deletes", float64(len(keys)))
	return err
}

// layerTotals sums span durations (seconds), counts spans and sums bytes
// per span name.
type layerTotals struct {
	secs, calls, in, out, status5xx map[string]float64
}

func (r *recorder) totals() layerTotals {
	t := layerTotals{map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		t.secs[s.Name] += s.dur()
		t.calls[s.Name]++
		t.in[s.Name] += float64(s.In)
		t.out[s.Name] += float64(s.Out)
		if s.Status >= 500 {
			t.status5xx[s.Name]++
		}
	}
	return t
}

// attribution checks that each client call lasted at least as long as
// the server handled it, and that persist time inside a handler fits in
// the handler's time. It returns the number of violations and the wire
// time: client time minus server time over matched exchanges.
func (r *recorder) attribution() (violations int, wire float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byID := make(map[uint64]*span, len(r.spans))
	for i := range r.spans {
		byID[r.spans[i].ID] = &r.spans[i]
	}
	persistIn := map[uint64]float64{}
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, "persist.") && s.Parent != 0 {
			persistIn[s.Parent] += s.dur()
		}
	}
	for _, s := range r.spans {
		if !strings.HasPrefix(s.Name, "httpapi.server.") {
			continue
		}
		if persistIn[s.ID] > s.dur() {
			violations++
		}
		c, ok := byID[s.Parent]
		if !ok || !strings.HasPrefix(c.Name, "httpapi.client.") {
			continue
		}
		if c.dur() < s.dur() {
			violations++
		}
		wire += c.dur() - s.dur()
	}
	return violations, wire
}

// writeSpans writes every span as one JSON line, with its self time: its
// duration minus the part of it that its child spans cover.
func (r *recorder) writeSpans(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		s.Self = s.End - s.Start - covered(s, children[s.ID])
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curEnd {
			curEnd = max(curEnd, e)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}
