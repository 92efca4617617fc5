package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"blob"
)

type opKind int

const (
	opWrite opKind = iota
	opRead
)

func (k opKind) String() string { return [...]string{"write", "read"}[k] }

// warmup runs the loops untimed before the window, until the caches and
// the disk stores' segment churn reach their steady state.
const warmup = 2 * time.Second

// workloadSpec describes one workload. Every workload runs at most two
// client loops (the processor count of the 2-vCPU machine it targets)
// from this process.
type workloadSpec struct {
	name string
	why  string
	// preload is how many 1 MiB segments setup writes and publishes.
	preload int
	// redundancy is the blob's mode: rs(4,2) or two full replicas.
	redundancy string
	// primary is the op whose latency the gated end-to-end metrics use.
	primary opKind
	// actors builds the workload's client loops on a prepared cluster.
	actors func(e *env) ([]*actor, error)
	// check verifies the run's output after the window, where a loop's
	// own per-op verification does not cover it.
	check func(ctx context.Context, e *env, acts []*actor) (attempted, failed int64, err error)
}

// workloads lists every workload the benchmark runs; BENCHMARK.json
// names the same ones.
var workloads = []*workloadSpec{
	{
		name: "ingest", preload: 0, redundancy: "rs(4,2)", primary: opWrite,
		why:    "2 closed-loop writers stream 1 MiB epochs into their own halves of an rs(4,2) blob: nearly all work is on the write path (encode, push, disk append, assign/commit, metadata build)",
		actors: ingestActors, check: ingestCheck,
	},
	{
		name: "cutout", preload: 64, redundancy: "replicate", primary: opRead,
		why:    "2 closed-loop readers fetch random 64 KiB pages of a pinned 64 MiB version that fits every cache: round trips and per-op CPU, no version-manager work",
		actors: cutoutActors,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// env is one prepared cluster: deployment, preloaded blob and clients.
type env struct {
	spec    *workloadSpec
	seed    int64
	d       *deployment
	red     blob.Redundancy
	blobID  uint64
	pinned  blob.Version // the version setup published
	clients []*blob.Client
	// expected holds every preloaded page (cutout verifies against it).
	expected [][]byte
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	e.d.close()
}

func (e *env) client(ctx context.Context) (*blob.Client, error) {
	c, err := e.d.client(ctx, e.red)
	if err != nil {
		return nil, err
	}
	e.clients = append(e.clients, c)
	return c, nil
}

func (e *env) open(ctx context.Context) (*blob.Client, *blob.Blob, error) {
	c, err := e.client(ctx)
	if err != nil {
		return nil, nil, err
	}
	b, err := c.OpenBlob(ctx, e.blobID)
	return c, b, err
}

// setup boots a cluster, creates the blob and writes the preload with
// two loader loops. It returns the time from the first process start to
// the preload's publication.
func setup(ctx context.Context, spec *workloadSpec, seed int64, bin, dir string) (*env, time.Duration, error) {
	red, err := blob.ParseRedundancy(spec.redundancy)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := boot(ctx, bin, dir)
	if err != nil {
		return nil, 0, err
	}
	e := &env{spec: spec, seed: seed, d: d, red: red}
	fail := func(err error) (*env, time.Duration, error) {
		e.close()
		return nil, 0, err
	}
	loader, err := e.client(ctx)
	if err != nil {
		return fail(err)
	}
	b, err := loader.CreateBlob(ctx, pageSize, capacity)
	if err != nil {
		return fail(err)
	}
	e.blobID = b.ID()
	e.expected = make([][]byte, spec.preload*segPages)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for l := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, segBytes)
			for seg := l; seg < spec.preload && errs[l] == nil; seg += len(errs) {
				fillPages(buf, seed, uint64(seg*segPages), 0)
				for i := 0; i < segPages; i++ {
					e.expected[seg*segPages+i] = append([]byte(nil), buf[i*pageSize:(i+1)*pageSize]...)
				}
				_, errs[l] = b.Write(ctx, buf, uint64(seg)*segBytes)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
	}
	if e.pinned, _, err = b.Latest(ctx); err != nil {
		return fail(err)
	}
	return e, time.Since(start), nil
}

// opRecord is one completed operation as its loop saw it.
type opRecord struct {
	kind    opKind
	bytes   int
	start   time.Time
	lat     time.Duration
	verify  time.Duration // verification after the op, not in lat
	offset  uint64
	version blob.Version
	wres    blob.WriteResult
	err     error
	// mismatch marks an op that returned without error but whose bytes
	// or version disagree with what the generator says they must be.
	mismatch bool
}

// actor is one closed-loop client.
type actor struct {
	role   string
	api    string // the client call each op makes
	client *blob.Client
	b      *blob.Blob
	do     func(ctx context.Context, rng *rand.Rand) opRecord
	// written records the segment offsets this actor wrote (ingest).
	written []uint64
}

func timeOp(kind opKind, n int, f func() error) opRecord {
	rec := opRecord{kind: kind, bytes: n, start: time.Now()}
	rec.err = f()
	rec.lat = time.Since(rec.start)
	return rec
}

// verified runs check after the op and records its time and outcome.
func (rec opRecord) verified(check func() error) opRecord {
	if rec.err != nil {
		return rec
	}
	t := time.Now()
	if err := check(); err != nil {
		rec.err, rec.mismatch = err, true
	}
	rec.verify = time.Since(t)
	return rec
}

// ingestActors: two writers, each appending 1 MiB segments at advancing
// offsets in its own half of the blob, through one shared client.
func ingestActors(e *env) ([]*actor, error) {
	ctx := context.Background()
	c, b, err := e.open(ctx)
	if err != nil {
		return nil, err
	}
	var acts []*actor
	for w := 0; w < 2; w++ {
		a := &actor{role: "writer", api: "WriteDetailed", client: c, b: b}
		region := uint64(w) * (capacity / 2)
		buf := make([]byte, segBytes)
		a.do = func(ctx context.Context, _ *rand.Rand) opRecord {
			off := region + uint64(len(a.written))*segBytes
			fillPages(buf, e.seed, off/pageSize, ingestTag)
			var res blob.WriteResult
			rec := timeOp(opWrite, segBytes, func() error {
				var err error
				res, err = b.WriteDetailed(ctx, buf, off)
				return err
			})
			rec.offset, rec.wres, rec.version = off, res, res.Version
			if rec.err == nil {
				a.written = append(a.written, off)
			}
			return rec
		}
		acts = append(acts, a)
	}
	return acts, nil
}

// ingestCheck reads back a seeded sample of the ingested segments, plus
// each writer's last one, at the latest version and verifies every byte.
func ingestCheck(ctx context.Context, e *env, acts []*actor) (attempted, failed int64, err error) {
	rng := rand.New(rand.NewPCG(uint64(e.seed), 99))
	var offs []uint64
	for _, a := range acts {
		if n := len(a.written); n > 0 {
			offs = append(offs, a.written[n-1])
			for i := 0; i < 16; i++ {
				offs = append(offs, a.written[rng.IntN(n)])
			}
		}
	}
	buf, scratch := make([]byte, segBytes), make([]byte, pageSize)
	b := acts[0].b
	for _, off := range offs {
		attempted++
		if _, rerr := b.ReadLatest(ctx, buf, off); rerr != nil {
			failed++
			err = rerr
			continue
		}
		if verr := verifyIngested(buf, scratch, e.seed, off); verr != nil {
			failed++
			err = fmt.Errorf("ingest read-back: %w", verr)
		}
	}
	return attempted, failed, err
}

// verifyIngested checks a segment read back from offset off against the
// bytes the ingest writer wrote there. Unwritten pages (zeros) and pages
// of any other write read as mismatches.
func verifyIngested(buf, scratch []byte, seed int64, off uint64) error {
	return verifyPages(buf, scratch, seed, off/pageSize, func(uint64) (uint64, error) { return ingestTag, nil })
}

// cutoutActors: two readers of single uniformly random pages of the
// pinned preload, through one shared client, each read checked
// byte-exact against the preloaded page.
func cutoutActors(e *env) ([]*actor, error) {
	c, b, err := e.open(context.Background())
	if err != nil {
		return nil, err
	}
	var acts []*actor
	for r := 0; r < 2; r++ {
		a := &actor{role: "reader", api: "ReadPinned", client: c, b: b}
		buf := make([]byte, pageSize)
		a.do = func(ctx context.Context, rng *rand.Rand) opRecord {
			page := rng.IntN(len(e.expected))
			off := uint64(page) * pageSize
			rec := timeOp(opRead, pageSize, func() error { return b.ReadPinned(ctx, buf, off, e.pinned) })
			rec.offset, rec.version = off, e.pinned
			return rec.verified(func() error {
				if !bytes.Equal(buf, e.expected[page]) {
					return fmt.Errorf("page %d: bytes differ from the preload at offset %d", page, firstDiff(buf, e.expected[page]))
				}
				return nil
			})
		}
		acts = append(acts, a)
	}
	return acts, nil
}

// window is the measured interval of a run and, in traced runs, the
// switch that alternates traced and untraced slices within it.
type window struct {
	start, end time.Time
	tracing    bool
	traced     atomic.Bool
}

// sample is one timed op: its start, from the window's, its latency
// and the user bytes it moved.
type sample struct {
	at, lat time.Duration
	bytes   int
}

// loopResult is what one actor's loop recorded.
type loopResult struct {
	attempted, failed, mismatched int64
	firstErr                      error
	// ops[traced][kind] holds the window's successful ops.
	ops    [2][2][]sample
	phases []blob.WriteResult
	probes map[string][]float64 // probe name -> ms
	spans  []span
}

// runLoop drives one actor closed-loop until the window ends. Ops
// before the window are warm-up: verified and counted, not timed.
func runLoop(ctx context.Context, a *actor, rng *rand.Rand, w *window, tr *tracer, res *loopResult) {
	res.probes = map[string][]float64{}
	for ctx.Err() == nil {
		start := time.Now()
		if !start.Before(w.end) {
			return
		}
		inWindow := !start.Before(w.start)
		traced := inWindow && w.tracing && w.traced.Load()
		octx, cancel := context.WithTimeout(ctx, 30*time.Second)
		rec := a.do(octx, rng)
		cancel()
		if ctx.Err() != nil {
			return
		}
		res.attempted++
		if rec.err != nil {
			res.failed++
			if rec.mismatch {
				res.mismatched++
			}
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s %s at offset %d: %w", a.role, rec.kind, rec.offset, rec.err)
			}
			continue
		}
		if !inWindow {
			continue
		}
		t := 0
		if traced {
			t = 1
		}
		res.ops[t][rec.kind] = append(res.ops[t][rec.kind], sample{at: start.Sub(w.start), lat: rec.lat, bytes: rec.bytes})
		if traced {
			if rec.kind == opWrite {
				res.phases = append(res.phases, rec.wres)
			}
			tr.record(ctx, a, rec, res)
		}
	}
}
