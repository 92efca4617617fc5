package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"blob/internal/dht"
	"blob/internal/diskstore"
	"blob/internal/erasure"
	"blob/internal/pmanager"
	"blob/internal/provider"
	"blob/internal/stats"
	"blob/internal/wire"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// perLayerMetrics are the traced run's metrics, in report order. Each is
// measured from outside the program: phase results the client API
// returns, counters the nodes serve, or calls timed around one layer's
// public functions.
var perLayerMetrics = []metricDef{
	{"core.write.push_ms", "ms"},
	{"core.write.assign_ms", "ms"},
	{"core.write.meta_ms", "ms"},
	{"core.write.commit_ms", "ms"},
	{"core.read.meta_ms", "ms"},
	{"core.read.data_ms", "ms"},
	{"core.hedged_per_read", "hedges/read"},
	{"core.hedge_win_ratio", "pages/hedge"},
	{"core.parity_bytes_per_user_byte", "B/B"},
	{"mstore.readplan_ms", "ms"},
	{"mstore.cache_hit_ratio", "ratio"},
	{"dht.gets_per_read", "gets/read"},
	{"dht.puts_per_write", "puts/write"},
	{"dht.bytes_per_user_byte", "B/B"},
	{"vmanager.latest_ms", "ms"},
	{"vmanager.assign_busy_ms", "ms"},
	{"vmanager.commit_busy_ms", "ms"},
	{"vmanager.append_busy_ms", "ms"},
	{"pmanager.allocate_busy_ms", "ms"},
	{"rpc.roundtrip_us", "us"},
	{"rpc.calls_per_op", "calls/op"},
	{"provider.get_busy_us", "us"},
	{"provider.put_busy_ms", "ms"},
	{"provider.cache_hit_ratio", "ratio"},
	{"provider.gets_per_page_read", "gets/page"},
	{"diskstore.put_us_per_page", "us"},
	{"diskstore.get_us_per_page", "us"},
	{"diskstore.bytes_per_user_byte", "B/B"},
	{"erasure.encode_MBps", "MB/s"},
	{"wire.checksum_GBps", "GB/s"},
	{"trace_overhead_pct", "%"},
}

// span is one timed interval the benchmark recorded around a call into
// the program. Spans of one loop iteration share Op; times are
// nanoseconds since the run started.
type span struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Op      uint64  `json:"op"`
	Name    string  `json:"name"`
	Start   int64   `json:"start_ns"`
	End     int64   `json:"end_ns"`
	Bytes   int     `json:"bytes,omitempty"`
	Version uint64  `json:"version,omitempty"`
	PhaseNS []int64 `json:"phases_ns,omitempty"` // write: push, assign, meta, commit
	Err     string  `json:"err,omitempty"`
}

// tracer records spans in memory for the traced slices of a run.
type tracer struct {
	t0   time.Time
	pm   string
	next atomic.Uint64
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// record adds one iteration's spans and runs the per-op probes against
// the range and version the op touched.
func (t *tracer) record(ctx context.Context, a *actor, rec opRecord, res *loopResult) {
	iter := t.next.Add(1)
	opSpan := span{ID: t.next.Add(1), Parent: iter, Op: iter, Name: "core." + a.api,
		Start: t.ns(rec.start), End: t.ns(rec.start.Add(rec.lat)), Bytes: rec.bytes, Version: uint64(rec.version)}
	if rec.kind == opWrite {
		w := rec.wres
		opSpan.PhaseNS = []int64{int64(w.DataTime), int64(w.AssignTime), int64(w.MetaTime), int64(w.CommitTime)}
	}
	res.spans = append(res.spans, opSpan)
	if rec.verify > 0 {
		vs := rec.start.Add(rec.lat)
		res.spans = append(res.spans, span{ID: t.next.Add(1), Parent: iter, Op: iter, Name: "bench.verify",
			Start: t.ns(vs), End: t.ns(vs.Add(rec.verify))})
	}
	probe := func(name, metric string, f func() error) {
		start := time.Now()
		err := f()
		end := time.Now()
		s := span{ID: t.next.Add(1), Parent: iter, Op: iter, Name: name, Start: t.ns(start), End: t.ns(end)}
		if err != nil {
			s.Err = err.Error()
		} else {
			res.probes[metric] = append(res.probes[metric], float64(end.Sub(start))/1e6)
		}
		res.spans = append(res.spans, s)
	}
	probe("probe.mstore.ReadMeta", "mstore.readplan_ms", func() error {
		_, err := a.b.ReadMeta(ctx, rec.offset, uint64(rec.bytes), rec.version)
		return err
	})
	probe("probe.vmanager.Latest", "vmanager.latest_ms", func() error {
		_, _, err := a.client.VersionManager().Latest(ctx, a.b.ID())
		return err
	})
	probe("probe.rpc.MList", "rpc.roundtrip_ms", func() error {
		_, err := a.client.Pool().Call(ctx, t.pm, pmanager.MList, nil)
		return err
	})
	res.spans = append(res.spans, span{ID: iter, Op: iter, Name: "bench.iteration",
		Start: t.ns(rec.start), End: t.ns(time.Now())})
}

// hist is a latency distribution reduced to what deltas need.
type hist struct {
	count int64
	sumUS float64
}

func fromSnapshot(s stats.HistogramSnapshot) hist { return hist{s.Count, float64(s.SumUS)} }
func (h hist) add(o hist) hist                    { return hist{h.count + o.count, h.sumUS + o.sumUS} }
func (h hist) meanMS() float64                    { return ratio(h.sumUS, float64(h.count)) / 1e3 }

// counters is one snapshot of every counter the per-layer metrics
// difference: the nodes' stats RPCs and /metrics, and the clients'.
type counters struct {
	provGets, provHits   int64
	provGet, provPut     hist
	dhtGets, dhtPuts     int64
	handlers             map[string]hist // rpc_handler_seconds by method, all nodes
	calls                int64           // handler calls of every method, all nodes
	selfCalls            int64           // RPCs the snapshot itself made
	reads, writes        int64
	bytesRead, bytesWrit int64
	hedged, wins, parity int64
	cacheHits, cacheMiss int64
	metaRead, readLat    hist
}

// sub returns c - o; add accumulates; both over every field.
func (c counters) sub(o counters) counters { return c.combine(o, -1) }
func (c counters) add(o counters) counters { return c.combine(o, 1) }

func (c counters) combine(o counters, sign int64) counters {
	f := float64(sign)
	h := func(a, b hist) hist { return hist{a.count + sign*b.count, a.sumUS + f*b.sumUS} }
	out := counters{
		provGets: c.provGets + sign*o.provGets, provHits: c.provHits + sign*o.provHits,
		provGet: h(c.provGet, o.provGet), provPut: h(c.provPut, o.provPut),
		dhtGets: c.dhtGets + sign*o.dhtGets, dhtPuts: c.dhtPuts + sign*o.dhtPuts,
		calls: c.calls + sign*o.calls, selfCalls: c.selfCalls + sign*o.selfCalls,
		reads: c.reads + sign*o.reads, writes: c.writes + sign*o.writes,
		bytesRead: c.bytesRead + sign*o.bytesRead, bytesWrit: c.bytesWrit + sign*o.bytesWrit,
		hedged: c.hedged + sign*o.hedged, wins: c.wins + sign*o.wins, parity: c.parity + sign*o.parity,
		cacheHits: c.cacheHits + sign*o.cacheHits, cacheMiss: c.cacheMiss + sign*o.cacheMiss,
		metaRead: h(c.metaRead, o.metaRead), readLat: h(c.readLat, o.readLat),
		handlers: map[string]hist{},
	}
	for k, v := range c.handlers {
		out.handlers[k] = v
	}
	for k, v := range o.handlers {
		out.handlers[k] = h(out.handlers[k], v)
	}
	return out
}

// snapshot reads every counter. The /metrics scrapes come first, so a
// delta between two snapshots counts exactly the RPCs of the earlier
// snapshot (recorded in selfCalls) on top of the workload's own.
func snapshot(ctx context.Context, e *env) (counters, error) {
	c := counters{handlers: map[string]hist{}}
	for _, n := range e.d.nodes {
		if err := scrapeHandlers(ctx, e.d.http, n.admin, &c); err != nil {
			return c, fmt.Errorf("%s /metrics: %w", n.name, err)
		}
	}
	for _, addr := range e.d.storage {
		resp, err := e.d.pool.Call(ctx, addr, provider.MStats, nil)
		if err != nil {
			return c, err
		}
		st, err := provider.DecodeStats(resp)
		if err != nil {
			return c, err
		}
		c.provGets += st.Gets
		c.provHits += st.CacheHits
		get, put, err := provider.FetchLatency(ctx, e.d.pool, addr)
		if err != nil {
			return c, err
		}
		c.provGet = c.provGet.add(fromSnapshot(get))
		c.provPut = c.provPut.add(fromSnapshot(put))
		if resp, err = e.d.pool.Call(ctx, addr, dht.MStats, nil); err != nil {
			return c, err
		}
		ds, err := dht.DecodeStoreStats(resp)
		if err != nil {
			return c, err
		}
		c.dhtGets += int64(ds.Gets)
		c.dhtPuts += int64(ds.Puts)
		c.selfCalls += 3
	}
	for _, cl := range e.clients {
		c.reads += cl.Reads.Value()
		c.writes += cl.Writes.Value()
		c.bytesRead += cl.BytesRead.Value()
		c.bytesWrit += cl.BytesWritten.Value()
		c.hedged += cl.HedgedReads.Value()
		c.wins += cl.HedgeWins.Value()
		c.parity += cl.ParityBytes.Value()
		cs := cl.Meta().CacheStats()
		c.cacheHits += cs.Hits
		c.cacheMiss += cs.Misses
		c.metaRead = c.metaRead.add(fromSnapshot(cl.MetaReadTime.Snapshot()))
		c.readLat = c.readLat.add(fromSnapshot(cl.ReadLatency.Snapshot()))
	}
	return c, nil
}

// scrapeHandlers adds one node's rpc_handler_seconds sums and counts.
func scrapeHandlers(ctx context.Context, hc *http.Client, admin string, c *counters) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+admin+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var isSum bool
		var rest string
		switch {
		case strings.HasPrefix(line, `rpc_handler_seconds_sum{method="`):
			isSum, rest = true, line[len(`rpc_handler_seconds_sum{method="`):]
		case strings.HasPrefix(line, `rpc_handler_seconds_count{method="`):
			rest = line[len(`rpc_handler_seconds_count{method="`):]
		default:
			continue
		}
		method, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			return fmt.Errorf("unparsable series %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("series %q: %w", line, err)
		}
		h := c.handlers[method]
		if isSum {
			h.sumUS += v * 1e6
		} else {
			h.count += int64(v)
			c.calls += int64(v)
		}
		c.handlers[method] = h
	}
	return sc.Err()
}

// storedBytes sums the providers' segment-file bytes and the metadata
// stores' bytes.
func storedBytes(ctx context.Context, d *deployment) (disk, meta int64, err error) {
	for _, addr := range d.storage {
		resp, err := d.pool.Call(ctx, addr, provider.MStats, nil)
		if err != nil {
			return 0, 0, err
		}
		st, err := provider.DecodeStats(resp)
		if err != nil {
			return 0, 0, err
		}
		disk += st.DiskBytes
		if resp, err = d.pool.Call(ctx, addr, dht.MStats, nil); err != nil {
			return 0, 0, err
		}
		ds, err := dht.DecodeStoreStats(resp)
		if err != nil {
			return 0, 0, err
		}
		meta += int64(ds.Bytes)
	}
	return disk, meta, nil
}

// traceSlices alternates untraced and traced slices over the window,
// starting untraced. It returns the counter deltas summed over the
// untraced slices, so the per-op probes never enter a counter ratio,
// and the time spent in untraced ([0]) and traced ([1]) slices.
func traceSlices(ctx context.Context, e *env, w *window, slice time.Duration) (counters, [2]time.Duration, error) {
	acc := counters{handlers: map[string]hist{}}
	var spent [2]time.Duration
	sleepUntil := func(t time.Time) bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(time.Until(t)):
			return true
		}
	}
	if !sleepUntil(w.start) {
		return acc, spent, ctx.Err()
	}
	for at := w.start; at.Before(w.end); at = at.Add(2 * slice) {
		w.traced.Store(false)
		untracedFrom := time.Now()
		a, err := snapshot(ctx, e)
		if err != nil {
			return acc, spent, err
		}
		mid := minTime(at.Add(slice), w.end)
		if !sleepUntil(mid) {
			return acc, spent, ctx.Err()
		}
		b, err := snapshot(ctx, e)
		if err != nil {
			return acc, spent, err
		}
		w.traced.Store(true)
		tracedFrom := time.Now()
		spent[0] += tracedFrom.Sub(untracedFrom)
		d := b.sub(a)
		d.selfCalls = a.selfCalls // a's RPCs land after its /metrics scrape
		acc = acc.add(d)
		next := minTime(mid.Add(slice), w.end)
		if !sleepUntil(next) {
			return acc, spent, ctx.Err()
		}
		spent[1] += time.Since(tracedFrom)
	}
	return acc, spent, nil
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// localProbes times three layers in this process on benchmark-owned
// inputs of the deployment's geometry: a diskstore with 64 KiB pages
// and the default 4 MiB segments, rs(4,2) encoding of 64 KiB shards,
// and the 64 KiB page checksum.
func localProbes(dir string, tr *tracer, seed int64) (map[string]float64, []span, error) {
	out := map[string]float64{}
	var spans []span
	timed := func(name string, budget time.Duration, f func() (int, error)) (time.Duration, int, error) {
		start := time.Now()
		n := 0
		for time.Since(start) < budget {
			k, err := f()
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
			n += k
		}
		end := time.Now()
		id := tr.next.Add(1)
		spans = append(spans, span{ID: id, Op: id, Name: name, Start: tr.ns(start), End: tr.ns(end), Bytes: n})
		return end.Sub(start), n, nil
	}

	dsDir := filepath.Join(dir, "probe-diskstore")
	defer os.RemoveAll(dsDir)
	ds, err := diskstore.Open(diskstore.Options{Dir: dsDir})
	if err != nil {
		return nil, nil, err
	}
	defer ds.Close()
	data := make([][]byte, segPages)
	for i := range data {
		data[i] = make([]byte, pageSize)
		fillPage(data[i], seed, uint64(i), 0)
	}
	var writes uint64
	d, n, err := timed("probe.diskstore.PutPages", 150*time.Millisecond, func() (int, error) {
		writes++
		batch := make([]diskstore.Page, len(data))
		for i := range batch {
			batch[i] = diskstore.Page{Blob: 1, Write: writes, Rel: uint32(i), Data: data[i]}
		}
		_, err := ds.PutPages(batch)
		return len(batch), err
	})
	if err != nil {
		return nil, nil, err
	}
	out["diskstore.put_us_per_page"] = float64(d.Microseconds()) / float64(n)
	rng := rand.New(rand.NewPCG(uint64(seed), 7))
	d, n, err = timed("probe.diskstore.GetPage", 150*time.Millisecond, func() (int, error) {
		if _, ok := ds.GetPage(1, 1+rng.Uint64N(writes), uint32(rng.IntN(segPages))); !ok {
			return 0, fmt.Errorf("page missing")
		}
		return 1, nil
	})
	if err != nil {
		return nil, nil, err
	}
	out["diskstore.get_us_per_page"] = float64(d.Microseconds()) / float64(n)

	code, err := erasure.Cached(4, 2)
	if err != nil {
		return nil, nil, err
	}
	d, n, err = timed("probe.erasure.Encode", 150*time.Millisecond, func() (int, error) {
		_, err := code.Encode(data[:4])
		return 4 * pageSize, err
	})
	if err != nil {
		return nil, nil, err
	}
	out["erasure.encode_MBps"] = float64(n) / d.Seconds() / 1e6

	var sink uint64
	d, n, err = timed("probe.wire.Checksum64", 150*time.Millisecond, func() (int, error) {
		sink += wire.Checksum64(data[0])
		return pageSize, nil
	})
	if err != nil {
		return nil, nil, err
	}
	_ = sink
	out["wire.checksum_GBps"] = float64(n) / d.Seconds() / 1e9
	return out, spans, nil
}

// perLayer derives the per-layer metrics. acc holds the counter deltas
// of the untraced slices; loop results carry the traced slices' write
// phases and probe timings.
func perLayer(acc counters, results []*loopResult, local map[string]float64, storedDisk, storedMeta, userWritten int64, overheadPct float64) map[string]float64 {
	m := map[string]float64{}
	var phases [4][]float64
	probes := map[string][]float64{}
	for _, r := range results {
		for _, w := range r.phases {
			for i, d := range []time.Duration{w.DataTime, w.AssignTime, w.MetaTime, w.CommitTime} {
				phases[i] = append(phases[i], float64(d)/1e6)
			}
		}
		for k, v := range r.probes {
			probes[k] = append(probes[k], v...)
		}
	}
	m["core.write.push_ms"] = mean(phases[0])
	m["core.write.assign_ms"] = mean(phases[1])
	m["core.write.meta_ms"] = mean(phases[2])
	m["core.write.commit_ms"] = mean(phases[3])
	m["core.read.meta_ms"] = acc.metaRead.meanMS()
	m["core.read.data_ms"] = ratio(acc.readLat.sumUS-acc.metaRead.sumUS, float64(acc.readLat.count)) / 1e3
	m["core.hedged_per_read"] = ratio(float64(acc.hedged), float64(acc.reads))
	m["core.hedge_win_ratio"] = ratio(float64(acc.wins), float64(acc.hedged))
	m["core.parity_bytes_per_user_byte"] = ratio(float64(acc.parity), float64(acc.bytesWrit))
	m["mstore.readplan_ms"] = mean(probes["mstore.readplan_ms"])
	m["mstore.cache_hit_ratio"] = ratio(float64(acc.cacheHits), float64(acc.cacheHits+acc.cacheMiss))
	m["dht.gets_per_read"] = ratio(float64(acc.dhtGets), float64(acc.reads))
	m["dht.puts_per_write"] = ratio(float64(acc.dhtPuts), float64(acc.writes))
	m["dht.bytes_per_user_byte"] = ratio(float64(storedMeta), float64(userWritten))
	m["vmanager.latest_ms"] = mean(probes["vmanager.latest_ms"])
	m["vmanager.assign_busy_ms"] = acc.handlers["vmanager.MAssign"].meanMS()
	m["vmanager.commit_busy_ms"] = acc.handlers["vmanager.MCommit"].meanMS()
	m["vmanager.append_busy_ms"] = acc.handlers["vmanager.MVmAppend"].meanMS()
	m["pmanager.allocate_busy_ms"] = acc.handlers["pmanager.MAllocate"].meanMS()
	m["rpc.roundtrip_us"] = mean(probes["rpc.roundtrip_ms"]) * 1e3
	m["rpc.calls_per_op"] = ratio(float64(acc.calls-acc.selfCalls), float64(acc.reads+acc.writes))
	m["provider.get_busy_us"] = acc.provGet.meanMS() * 1e3
	m["provider.put_busy_ms"] = acc.provPut.meanMS()
	// MStats counts RAM-cache hits apart from Gets, the lookups that
	// reached the disk store; a page lookup is one or the other.
	lookups := float64(acc.provHits + acc.provGets)
	m["provider.cache_hit_ratio"] = ratio(float64(acc.provHits), lookups)
	m["provider.gets_per_page_read"] = ratio(lookups, float64(acc.bytesRead)/pageSize)
	m["diskstore.bytes_per_user_byte"] = ratio(float64(storedDisk), float64(userWritten))
	for k, v := range local {
		m[k] = v
	}
	m["trace_overhead_pct"] = overheadPct
	return m
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
