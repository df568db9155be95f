package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"coda/internal/darr"
	"coda/internal/httpapi"
	"coda/internal/replication"
	"coda/internal/store"
)

// server is an in-process coda server wired as cmd/coda-server wires it
// with its default flags, except that the DARR and the home store are
// durable log: backends in the run's own directories.
type server struct {
	repo   *darr.Repo
	store  *store.HomeStore
	leases *replication.Manager
	http   *http.Server
	done   chan error
	url    string
}

// serverDSNs names the two persistence backends a server opens.
type serverDSNs struct{ darr, store string }

// openServer opens the durable DARR and store (replaying their logs),
// starts serving on a fresh loopback port and returns once the server
// has answered a health check. wrapStore and wrapHandler let a traced
// run put its decorators around the store and the HTTP handler; nil
// leaves them out.
func openServer(dsn serverDSNs, wrapStore func(store.ObjectStore) store.ObjectStore, wrapHandler func(http.Handler) http.Handler) (*server, error) {
	repo, err := darr.NewDurableRepo(dsn.darr, nil, time.Minute)
	if err != nil {
		return nil, fmt.Errorf("opening DARR: %w", err)
	}
	st, err := store.OpenDSN(dsn.store, store.Options{Retain: 4, BlockSize: 64, FullFraction: 0.5})
	if err != nil {
		repo.Close()
		return nil, fmt.Errorf("opening store: %w", err)
	}
	var hs store.ObjectStore = st
	if wrapStore != nil {
		hs = wrapStore(hs)
	}
	api := httpapi.NewServer(repo, hs)
	api.MaxBatchKeys = httpapi.DefaultMaxBatchKeys
	leases := replication.NewManagerWith(hs, nil, replication.Config{
		Workers:        8,
		CoalesceWindow: 50 * time.Millisecond,
		SweepInterval:  30 * time.Second,
	})
	api.MaxLeaseTTL = time.Hour
	api.EnableLeases(leases)
	var handler http.Handler = api
	if wrapHandler != nil {
		handler = wrapHandler(handler)
	}
	s := &server{repo: repo, store: st, leases: leases, done: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeStores()
		return nil, fmt.Errorf("listening: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{
		Handler:      handler,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	go func() { s.done <- s.http.Serve(ln) }()
	if err := s.healthy(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// healthy performs one GET /healthz on a throwaway connection.
func (s *server) healthy() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 10 * time.Second}).Get(s.url + "/healthz")
	if err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health check: status %d", resp.StatusCode)
	}
	return nil
}

// close drains in-flight requests, stops serving and closes the durable
// backends, as coda-server does on SIGTERM.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := s.closeStores(); err == nil {
		err = cerr
	}
	return err
}

func (s *server) closeStores() error {
	s.leases.Close()
	err := s.store.Close()
	if rerr := s.repo.Close(); err == nil {
		err = rerr
	}
	return err
}

// newHTTPClient gives one analyst its own keep-alive connection.
func newHTTPClient(rt func(http.RoundTripper) http.RoundTripper) (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	var t http.RoundTripper = tr
	if rt != nil {
		t = rt(tr)
	}
	return &http.Client{Transport: t, Timeout: httpapi.DefaultRequestTimeout}, tr
}

// newClient builds an analyst's DARR/store client on its connection.
func newClient(url, id string, hc *http.Client) *httpapi.Client {
	c := httpapi.NewClient(url, id)
	c.HTTP = hc
	c.Metric = "rmse"
	return c
}

// newSearchClient builds the client for one batched cooperative search,
// configured as coda-client search configures it: publishes go through
// the async queue, and the caller closes the client when the search has
// returned.
func newSearchClient(url, id string, hc *http.Client) *httpapi.Client {
	c := newClient(url, id, hc)
	c.EnablePublishQueue(httpapi.DefaultPublishBatchSize, httpapi.DefaultPublishFlushInterval)
	return c
}
