package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// estimatorLayers are the estimator layers the traced run reports, with
// fit time, predict time and calls each.
var estimatorLayers = []string{
	"mlmodels.forest", "mlmodels.tree", "mlmodels.knn", "mlmodels.linear",
	"nnmodels.lstm", "nnmodels.cnn", "nnmodels.dnn", "nnmodels.stat",
}

// layerMetrics fills m with the per-layer metrics of the traced rounds.
// Times, counts and bytes are per traced round; every ratio is reported
// next to its base.
func (b *bench) layerMetrics(m map[string]metric, records int, replayed, diskBytes int64) {
	t := b.rec.totals()
	c := b.rec.counts
	per := func(v float64) float64 { return ratio(v, float64(b.tracedRounds)) }
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	search := t.secs["core.search"]
	put("core.search_s", per(search), "s/round")
	for _, k := range []string{"compute", "darr_wait", "store_wait", "queue", "other"} {
		put("core."+k+"_s", per(c["core."+k+"_s"]), "s/round")
	}
	put("core.profile_gap_ratio", ratio(math.Abs(c["core.profile_total_s"]-search), search), "ratio")
	for _, k := range []string{"computed", "from_darr", "skipped", "degraded", "failed"} {
		put("core.units_"+k, per(c["core.units_"+k]), "count/round")
	}
	put("core.prefix_hit_ratio", ratio(c["core.prefix_hits"], c["core.prefix_lookups"]), "ratio")
	put("core.prefix_lookups", per(c["core.prefix_lookups"]), "count/round")
	put("core.prefix_fits", per(c["core.prefix_fits"]), "count/round")

	for _, l := range estimatorLayers {
		put(l+".fit_s", per(t.secs[l+".fit"]), "s/round")
		put(l+".predict_s", per(t.secs[l+".predict"]), "s/round")
		put(l+".calls", per(t.calls[l+".fit"]+t.calls[l+".predict"]), "count/round")
	}
	put("dataset.read_csv_s", per(t.secs["dataset.read_csv"]), "s/round")

	put("httpapi.lookup_batch_s", per(t.secs["httpapi.lookup_batch"]), "s/round")
	put("httpapi.claim_batch_s", per(t.secs["httpapi.claim_batch"]), "s/round")
	put("httpapi.flush_s", per(t.secs["httpapi.flush"]), "s/round")
	put("httpapi.close_s", per(t.secs["httpapi.close"]), "s/round")
	put("httpapi.release_calls", per(t.calls["httpapi.release"]), "count/round")
	put("httpapi.errors", per(c["httpapi.errors"]), "count/round")
	put("httpapi.put_object_s", per(t.secs["httpapi.put_object"]), "s/round")
	put("httpapi.pull_object_s", per(t.secs["httpapi.pull_object"]), "s/round")
	var reqBytes, respBytes float64
	for _, r := range routes {
		name := "httpapi.server." + r
		put("httpapi."+r+".requests", per(t.calls[name]), "count/round")
		put("httpapi."+r+".server_s", per(t.secs[name]), "s/round")
		put("httpapi."+r+".status_5xx", per(t.status5xx[name]), "count/round")
		reqBytes += t.in[name]
		respBytes += t.out[name]
	}
	violations, wire := b.rec.attribution()
	put("httpapi.req_bytes", per(reqBytes), "B/round")
	put("httpapi.resp_bytes", per(respBytes), "B/round")
	put("httpapi.wire_s", per(wire), "s/round")

	put("darr.hit_ratio", ratio(float64(b.darrHits), float64(b.darrLookups)), "ratio")
	put("darr.lookups", per(float64(b.darrLookups)), "count/round")
	put("darr.claim_grant_ratio", ratio(c["darr.claims_granted"], c["darr.keys_claimed"]), "ratio")
	put("darr.keys_claimed", per(c["darr.keys_claimed"]), "count/round")
	put("darr.records", float64(records), "count")
	put("darr.active_claims_at_round_end", float64(b.maxActiveClaims), "count")

	put("persist.darr.put_batch_s", per(t.secs["persist.darr.put_batch"]), "s/round")
	put("persist.darr.put_batches", per(t.calls["persist.darr.put_batch"]), "count/round")
	put("persist.darr.keys_put", per(c["persist.darr.keys_put"]), "count/round")
	put("persist.darr.bytes_put", per(t.in["persist.darr.put_batch"]), "B/round")
	put("persist.darr.deletes", per(c["persist.darr.deletes"]), "count/round")
	put("persist.darr.get_s", per(t.secs["persist.darr.get_batch"]), "s/round")
	b.rec.mu.Lock()
	put("persist.darr.open_s", b.rec.darrOpen.Seconds(), "s")
	b.rec.mu.Unlock()
	put("persist.darr.replayed_records", float64(replayed), "count")
	put("persist.darr.disk_bytes", float64(diskBytes), "B")
	put("persist.store.put_batch_s", per(t.secs["persist.store.put_batch"]), "s/round")
	put("persist.store.bytes_put", per(t.in["persist.store.put_batch"]), "B/round")

	put("store.put_s", per(t.secs["store.put"]), "s/round")
	put("store.get_s", per(t.secs["store.get"]), "s/round")
	put("store.delta_reply_ratio", ratio(c["store.delta_replies"], t.calls["store.get"]), "ratio")
	put("store.replies", per(t.calls["store.get"]), "count/round")
	put("store.wire_ratio", ratio(c["store.wire_bytes"], c["store.object_bytes"]), "ratio")
	put("store.object_bytes", per(c["store.object_bytes"]), "B/round")

	put("go.gc_cycles", per(float64(b.goGCs)), "count/round")
	put("go.gc_pause_s", per(float64(b.goPauseNs)/1e9), "s/round")
	put("go.alloc_bytes", per(float64(b.goAlloc)), "B/round")

	traced, untraced := b.coldTraced.median(), b.coldUntraced.median()
	put("trace_overhead_ratio", ratio(traced, untraced), "ratio")
	put("traced_cold_p50_s", traced, "s")
	put("untraced_cold_p50_s", untraced, "s")
	put("sync_p50_s", b.syncs.median(), "s")
	put("attribution_violations", float64(violations), "count")
	if violations > 0 {
		b.fail("%d calls where client time < server time or persist time > server time", violations)
	}
	// The program states its profile is within 5% of the search's wall time.
	if gap := m["core.profile_gap_ratio"].Value; gap > 0.05 {
		b.fail("search profiles sum to %.1f%% off the searches' wall time", 100*gap)
	}
	put("failed_ops_ratio", b.failedRatio(), "ratio")
}

func (b *bench) failedRatio() float64 {
	var n int64
	for _, v := range b.attempted {
		n += v
	}
	return ratio(float64(b.failed), float64(n))
}

// report prints what the run measured, with sample counts and the bases
// of ratios, ahead of the JSON line.
func (b *bench) report(res *result, setup samples) {
	w := b.cfg.out
	fmt.Fprintf(w, "workload=%s seed=%d trace=%t rounds=%d traced_rounds=%d\n",
		b.cfg.workload, b.cfg.seed, b.cfg.trace, len(b.rounds), b.tracedRounds)
	for _, s := range []struct {
		name string
		v    samples
	}{{"cold_search", b.cold}, {"warm_search", b.warm}, {"sync", b.syncs}, {"round", b.rounds}, {"setup", setup}} {
		if len(s.v) == 0 {
			continue
		}
		tail, pct := s.v.tail()
		fmt.Fprintf(w, "%s: n=%d p50=%.4fs tail(p%.0f)=%.4fs\n", s.name, len(s.v), s.v.median(), pct, tail)
	}
	if b.cfg.trace {
		fmt.Fprintf(w, "trace_overhead_ratio=%.4f (traced cold p50 %.4fs over n=%d, untraced %.4fs over n=%d)\n",
			res.Metrics["trace_overhead_ratio"].Value, b.coldTraced.median(), len(b.coldTraced),
			b.coldUntraced.median(), len(b.coldUntraced))
	}
	var kinds []string
	for k, v := range b.attempted {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "failed_ops_ratio=%g (%d failed of %d attempted: %s)\n",
		b.failedRatio(), res.Failed, res.Attempted, strings.Join(kinds, " "))
	for _, p := range b.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
