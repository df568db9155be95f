package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/darr"
)

// clientFor serves a hand-built Server (e.g. with a custom MaxBatchKeys)
// and returns a client wired to it.
func clientFor(t *testing.T, srv *Server) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(srv)
	return NewClient(ts.URL, "test-client"), ts
}

var (
	_ core.BatchResultStore = (*Client)(nil)
	_ core.Flusher          = (*Client)(nil)
	_ core.ResultStore      = PerUnitStore{}
	_ core.ClaimReleaser    = PerUnitStore{}
)

// PerUnitStore must NOT satisfy the batch interface, or the A/B baseline
// silently becomes the batched protocol.
var _ = func() bool {
	var s any = PerUnitStore{}
	if _, ok := s.(core.BatchResultStore); ok {
		panic("PerUnitStore must not implement BatchResultStore")
	}
	return true
}()

func TestBatchEndpointsRoundTrip(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	ctx := context.Background()
	keys := []string{"fp|s1|e", "fp|s2|e", "fp|s3|e"}

	scores, err := c.LookupBatch(ctx, keys)
	if err != nil || len(scores) != 0 {
		t.Fatalf("LookupBatch on empty repo = %v, %v", scores, err)
	}
	granted, err := c.ClaimBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !granted[k] {
			t.Fatalf("claim for %q denied on empty repo: %v", k, granted)
		}
	}
	// A second client is denied all three in one round trip.
	c2 := NewClient(c.BaseURL, "rival")
	denied, err := c2.ClaimBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if denied[k] {
			t.Fatalf("rival stole claim for %q", k)
		}
	}

	recs := make([]darr.Record, len(keys))
	for i, k := range keys {
		recs[i] = darr.Record{Key: k, DatasetFP: "fp", Score: float64(i)}
	}
	if err := c.PublishBatch(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 3 || repo.ActiveClaims() != 0 {
		t.Fatalf("records=%d claims=%d after batch publish", repo.Len(), repo.ActiveClaims())
	}
	scores, err = c2.LookupBatch(ctx, keys)
	if err != nil || len(scores) != 3 || scores[keys[2]] != 2 {
		t.Fatalf("LookupBatch after publish = %v, %v", scores, err)
	}
}

func TestBatchEndpointRejectsOversizedAndEmpty(t *testing.T) {
	repo := darr.NewRepo(nil, time.Minute)
	srv := NewServer(repo, nil)
	srv.MaxBatchKeys = 2
	c, ts := clientFor(t, srv)
	defer ts.Close()
	ctx := context.Background()

	if _, err := c.LookupBatch(ctx, []string{"a", "b", "c"}); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("oversized batch error = %v, want 400", err)
	}
	if _, err := c.LookupBatch(ctx, nil); err == nil {
		t.Fatal("empty batch must be rejected")
	}
	if _, err := c.ClaimBatch(ctx, []string{"a", "b", "c"}); err == nil {
		t.Fatal("oversized claim batch must be rejected")
	}
	// client_id is required for claims.
	anon := NewClient(c.BaseURL, "")
	if _, err := anon.ClaimBatch(ctx, []string{"a"}); err == nil {
		t.Fatal("claim batch without client_id must be rejected")
	}
}

// A batch body larger than MaxBatchKeys entries' byte budget is refused
// with a 413 JSON error before it is decoded, even when it holds few keys;
// a body within the budget still goes through.
func TestBatchEndpointsCapBodyBeforeDecode(t *testing.T) {
	srv := NewServer(darr.NewRepo(nil, time.Minute), nil)
	srv.MaxBatchKeys = 2
	ts := httptest.NewServer(srv)
	defer ts.Close()
	limit := 2 * maxBatchEntryBytes
	post := func(path, body string) (int, errorReply) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply errorReply
		_ = json.NewDecoder(resp.Body).Decode(&reply)
		return resp.StatusCode, reply
	}
	huge := strings.Repeat("k", limit)
	for path, body := range map[string]string{
		"/darr/batch/lookup":  `{"keys":["` + huge + `"]}`,
		"/darr/batch/claims":  `{"client_id":"c","keys":["` + huge + `"]}`,
		"/darr/batch/records": `{"records":[{"key":"` + huge + `"}]}`,
	} {
		status, reply := post(path, body)
		if status != http.StatusRequestEntityTooLarge || reply.Status != status || !strings.Contains(reply.Error, "exceeds") {
			t.Fatalf("%s: %d-byte body got status %d, reply %+v; want 413 with a JSON error", path, len(body), status, reply)
		}
	}
	if status, reply := post("/darr/batch/lookup", `{"keys":["`+huge[:limit/2]+`"]}`); status != http.StatusOK {
		t.Fatalf("body within the budget got status %d, reply %+v", status, reply)
	}
}

func TestPublishQueueFlushPaths(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	ctx := context.Background()

	// Size-triggered: the third enqueue kicks an async flush.
	c.EnablePublishQueue(3, time.Hour)
	for i, k := range []string{"fp|a|e", "fp|b|e", "fp|c|e"} {
		if err := c.Publish(ctx, k, float64(i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for repo.Len() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("size-triggered flush never landed; repo has %d records", repo.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Explicit Flush drains a partial batch synchronously.
	if err := c.Publish(ctx, "fp|d|e", 4, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 4 {
		t.Fatalf("repo has %d records after Flush, want 4", repo.Len())
	}

	// Close drains the remainder and is idempotent.
	if err := c.Publish(ctx, "fp|e|e", 5, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 5 {
		t.Fatalf("repo has %d records after Close, want 5", repo.Len())
	}
}

// TestPublishQueueFlushWaitsForInFlightBatch pins the core.Flusher
// contract against a slow server: once the size threshold has kicked an
// async flush, Flush must not return until that batch has been stored,
// even though it finds nothing pending itself.
func TestPublishQueueFlushWaitsForInFlightBatch(t *testing.T) {
	repo := darr.NewRepo(nil, time.Minute)
	srv := NewServer(repo, nil)
	inFlight := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/darr/batch/records" {
			select {
			case inFlight <- struct{}{}:
			default:
			}
			time.Sleep(200 * time.Millisecond)
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, "test-client")
	c.EnablePublishQueue(2, time.Hour)
	defer c.Close()
	ctx := context.Background()
	for i, k := range []string{"fp|a|e", "fp|b|e"} {
		if err := c.Publish(ctx, k, float64(i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	<-inFlight
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := repo.Len(); n != 2 {
		t.Fatalf("Flush returned with %d records stored, want the in-flight batch of 2", n)
	}
}

func TestPublishQueueIntervalFlush(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	c.EnablePublishQueue(1000, 10*time.Millisecond)
	defer c.Close()
	if err := c.Publish(context.Background(), "fp|tick|e", 1, "x"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for repo.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval flush never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPublishWithoutQueueIsSynchronous: a queue-less client keeps the
// per-record POST semantics.
func TestPublishWithoutQueueIsSynchronous(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	if err := c.Publish(context.Background(), "fp|sync|e", 1, "x"); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 1 {
		t.Fatal("synchronous publish must land before returning")
	}
}

// TestReleaseOverHTTP: the DELETE claim path frees a key for rivals.
func TestReleaseOverHTTP(t *testing.T) {
	c, _, _, _ := newTestServer(t)
	ctx := context.Background()
	granted, err := c.Claim(ctx, "fp|r|e")
	if err != nil || !granted {
		t.Fatalf("claim = %v, %v", granted, err)
	}
	rival := NewClient(c.BaseURL, "rival")
	if g, _ := rival.Claim(ctx, "fp|r|e"); g {
		t.Fatal("rival claimed a held key")
	}
	if err := c.Release(ctx, "fp|r|e"); err != nil {
		t.Fatal(err)
	}
	if g, err := rival.Claim(ctx, "fp|r|e"); err != nil || !g {
		t.Fatalf("released key not re-claimable: %v, %v", g, err)
	}
}
