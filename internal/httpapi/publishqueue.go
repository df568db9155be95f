package httpapi

import (
	"context"
	"sync"
	"time"

	"coda/internal/darr"
	"coda/internal/obs"
)

// Publish-queue telemetry: how many records were coalesced, how flushes
// fared, and how many records a failed flush dropped.
var (
	mPubQueued   = obs.GetCounter("coda_darr_batch_publish_queued_total")
	mPubFlushOK  = obs.GetCounter(`coda_darr_batch_publish_flushes_total{outcome="ok"}`)
	mPubFlushErr = obs.GetCounter(`coda_darr_batch_publish_flushes_total{outcome="error"}`)
	mPubDropped  = obs.GetCounter("coda_darr_batch_publish_dropped_total")
)

// Publish-queue defaults: a flush per few dozen finished units, and an
// age bound so a slow search still shares results with peers promptly.
const (
	DefaultPublishBatchSize     = 32
	DefaultPublishFlushInterval = 250 * time.Millisecond
)

// publishQueue coalesces Publish calls into POST /darr/batch/records.
// A background goroutine flushes every interval; enqueues past the size
// threshold kick an immediate async flush; Flush drains synchronously
// (core.Search flushes on exit via the core.Flusher hook).
type publishQueue struct {
	c        *Client
	size     int
	interval time.Duration

	mu      sync.Mutex
	pending []darr.Record

	// flushMu is held from take until the batch has landed, so a Flush
	// that finds nothing pending still waits out a batch the background
	// loop has in flight.
	flushMu sync.Mutex

	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// EnablePublishQueue turns Publish into an async enqueue feeding
// coalesced batch uploads, flushed when size records are pending, every
// interval, and on Flush/Close. Values <= 0 use the defaults. Enable
// the queue before sharing the client across goroutines. Queued
// publishes are best-effort: a flush that exhausts its retries drops
// its records (counted in coda_darr_batch_publish_dropped_total) and
// peers re-claim the work after the claim TTL.
func (c *Client) EnablePublishQueue(size int, interval time.Duration) {
	if c.queue.Load() != nil {
		return
	}
	if size <= 0 {
		size = DefaultPublishBatchSize
	}
	if interval <= 0 {
		interval = DefaultPublishFlushInterval
	}
	q := &publishQueue{
		c: c, size: size, interval: interval,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if c.queue.CompareAndSwap(nil, q) {
		go q.loop()
	}
}

// Flush synchronously drains the publish queue; without one it is a
// no-op, which also makes it the core.Flusher implementation.
func (c *Client) Flush(ctx context.Context) error {
	if q := c.queue.Load(); q != nil {
		return q.flush(ctx)
	}
	return nil
}

// Close stops the publish-queue goroutine and drains any remaining
// records. A Client without a queue needs no Close.
func (c *Client) Close() error {
	if q := c.queue.Load(); q != nil {
		return q.close()
	}
	return nil
}

func (q *publishQueue) enqueue(rec darr.Record) {
	q.mu.Lock()
	q.pending = append(q.pending, rec)
	full := len(q.pending) >= q.size
	q.mu.Unlock()
	mPubQueued.Inc()
	if full {
		select {
		case q.kick <- struct{}{}:
		default:
		}
	}
}

// take atomically detaches the pending records.
func (q *publishQueue) take() []darr.Record {
	q.mu.Lock()
	defer q.mu.Unlock()
	recs := q.pending
	q.pending = nil
	return recs
}

func (q *publishQueue) flush(ctx context.Context) error {
	q.flushMu.Lock()
	defer q.flushMu.Unlock()
	recs := q.take()
	if len(recs) == 0 {
		return nil
	}
	if err := q.c.PublishBatch(ctx, recs); err != nil {
		mPubFlushErr.Inc()
		mPubDropped.Add(int64(len(recs)))
		q.c.logger().Warn("publish queue flush failed; records dropped",
			"records", len(recs), "server", q.c.BaseURL, "err", err)
		return err
	}
	mPubFlushOK.Inc()
	return nil
}

func (q *publishQueue) loop() {
	defer close(q.done)
	t := time.NewTicker(q.interval)
	defer t.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-q.kick:
			_ = q.flush(context.Background())
		case <-t.C:
			_ = q.flush(context.Background())
		}
	}
}

func (q *publishQueue) close() error {
	q.stopOnce.Do(func() { close(q.stop) })
	<-q.done
	return q.flush(context.Background())
}
