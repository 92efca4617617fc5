// Command perfbench is the repository's end-to-end benchmark: it boots
// blobnode processes as a real deployment on loopback TCP with
// disk-backed providers, drives one workload through the public client
// API from this single process, verifies every byte it reads, and
// prints the metrics BENCHMARK.json names. See README.md.
//
//	perfbench -blobnode <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <runs-dir-A> <runs-dir-B>
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// e2eMetrics are the gated end-to-end metrics every workload reports.
// The op is the workload's primary operation: ingest's 1 MiB write,
// cutout's 64 KiB pinned read.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"stored_bytes_per_user_byte", "B/B"},
}

const (
	traceSlice  = time.Second
	runDeadline = 170 * time.Second
	// setupsPerRun deployments are set up in an untraced run; setup_s
	// is their median, which one slow boot does not move.
	setupsPerRun = 3
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	blobnode string
	workdir  string
	commit   string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: the run's identity, provenance and
// every measured figure, including the per-kind ones the gated metrics
// summarize.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Trace      bool                   `json:"trace"`
	Provenance map[string]any         `json:"provenance"`
	Detail     map[string]metricValue `json:"detail"`
	FirstError string                 `json:"first_error,omitempty"`
	// OpsPerSecond counts the primary op's completions in each second of
	// the window, to show whether throughput held steady within the run.
	OpsPerSecond []int `json:"primary_ops_per_second,omitempty"`
}

const reportPrefix = "perfbench-report "

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fset.StringVar(&cfg.workload, "workload", "", "workload: ingest or cutout")
	fset.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fset.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	fset.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fset.StringVar(&cfg.blobnode, "blobnode", "", "blobnode binary built from the code under test")
	fset.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for cluster data, logs and traces")
	fset.StringVar(&cfg.commit, "commit", "unknown", "commit of the code under test, for provenance")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if _, err := findWorkload(cfg.workload); err != nil || cfg.blobnode == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -blobnode, --workload ingest|cutout, --seconds >= 1, --trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	res, rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(os.Stdout, rep, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// opStats summarizes one op kind's window samples.
type opStats struct {
	n             int
	p50, p95, p99 float64
	mbps          float64
}

// summarize reduces one op kind's window samples. Throughput counts the
// bytes of ops that completed inside the window.
func summarize(ops []sample, window time.Duration) opStats {
	ms := msSorted(ops)
	var bytes int64
	for _, o := range ops {
		if o.at+o.lat < window {
			bytes += int64(o.bytes)
		}
	}
	return opStats{n: len(ms), p50: percentile(ms, 0.50), p95: percentile(ms, 0.95), p99: percentile(ms, 0.99),
		mbps: float64(bytes) / window.Seconds() / 1e6}
}

func run(ctx context.Context, cfg config) (result, report, error) {
	spec, _ := findWorkload(cfg.workload)
	runDir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return result{}, report{}, err
	}
	defer os.RemoveAll(runDir)
	setups := setupsPerRun
	if cfg.trace {
		setups = 1 // setup time is an end-to-end metric; the traced run skips repeating it
	}
	var setupS []float64
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		var d time.Duration
		e, d, err = setup(ctx, spec, cfg.seed, cfg.blobnode, filepath.Join(runDir, fmt.Sprintf("cluster%d", i)))
		if err != nil {
			return result{}, report{}, fmt.Errorf("setup %d: %w", i+1, err)
		}
		setupS = append(setupS, d.Seconds())
	}

	acts, err := spec.actors(e)
	if err != nil {
		return result{}, report{}, err
	}
	// Flush what set-up left behind (preload pages not yet written
	// back, discards of the torn-down set-ups' files) so it does not
	// land in the warm-up or the window.
	syscall.Sync()
	t0 := time.Now()
	w := &window{start: t0.Add(warmup), tracing: cfg.trace}
	w.end = w.start.Add(time.Duration(cfg.seconds) * time.Second)
	tr := &tracer{t0: t0, pm: e.d.pm}
	results := make([]*loopResult, len(acts))
	var wg sync.WaitGroup
	for i, a := range acts {
		results[i] = &loopResult{}
		rng := rand.New(rand.NewPCG(uint64(cfg.seed), uint64(i+1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			runLoop(ctx, a, rng, w, tr, results[i])
		}()
	}
	var acc counters
	var sliceTime [2]time.Duration
	var sliceErr error
	if cfg.trace {
		// At least two slices of each kind, even in a short window.
		acc, sliceTime, sliceErr = traceSlices(ctx, e, w, min(traceSlice, w.end.Sub(w.start)/4))
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return result{}, report{}, fmt.Errorf("interrupted: %w", err)
	}
	if sliceErr != nil {
		return result{}, report{}, fmt.Errorf("counter snapshots: %w", sliceErr)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var firstErr error
	var mismatched int64
	for _, r := range results {
		res.Attempted += r.attempted
		res.Failed += r.failed
		mismatched += r.mismatched
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	if spec.check != nil {
		a, f, err := spec.check(ctx, e, acts)
		res.Attempted += a
		res.Failed += f
		mismatched += f
		if firstErr == nil {
			firstErr = err
		}
	}
	res.Correct = mismatched == 0

	disk, meta, err := storedBytes(ctx, e.d)
	if err != nil {
		return result{}, report{}, err
	}
	var userWritten int64
	for _, c := range e.clients {
		userWritten += c.BytesWritten.Value()
	}

	window := time.Duration(cfg.seconds) * time.Second
	var ops [2][2][]sample
	for _, r := range results {
		for t := range ops {
			for k := range ops[t] {
				ops[t][k] = append(ops[t][k], r.ops[t][k]...)
			}
		}
	}
	rep := report{Workload: spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Provenance: provenance(cfg, e.d), Detail: map[string]metricValue{}}
	if firstErr != nil {
		rep.FirstError = firstErr.Error()
	}
	add := func(m map[string]metricValue, name, unit string, v float64) { m[name] = metricValue{v, unit} }
	errRate := ratio(float64(res.Failed), float64(res.Attempted))
	stored := ratio(float64(disk+meta), float64(userWritten))
	add(rep.Detail, "error_rate", "ratio", errRate)
	add(rep.Detail, "stored_bytes_per_user_byte", "B/B", stored)
	add(rep.Detail, "user_bytes_written", "B", float64(userWritten))

	if !cfg.trace {
		// Untraced: all window samples are untraced.
		var kinds [2]opStats
		for k := range kinds {
			kinds[k] = summarize(ops[0][k], window)
			name := opKind(k).String()
			if kinds[k].n > 0 {
				add(rep.Detail, name+"_p50_ms", "ms", kinds[k].p50)
				add(rep.Detail, name+"_p95_ms", "ms", kinds[k].p95)
				add(rep.Detail, name+"_p99_ms", "ms", kinds[k].p99)
				add(rep.Detail, name+"_MBps", "MB/s", kinds[k].mbps)
			}
			add(rep.Detail, name+"_samples", "count", float64(kinds[k].n))
		}
		p := kinds[spec.primary]
		add(res.Metrics, "setup_s", "s", median(setupS))
		add(res.Metrics, "op_p50_ms", "ms", p.p50)
		add(res.Metrics, "stored_bytes_per_user_byte", "B/B", stored)
		rep.Provenance["setup_s_samples"] = setupS
		perSec := make([]int, cfg.seconds)
		for _, o := range ops[0][spec.primary] {
			if i := int(o.at / time.Second); i < len(perSec) {
				perSec[i]++
			}
		}
		rep.OpsPerSecond = perSec
		if p.n == 0 {
			return result{}, report{}, errors.New("no successful operation in the window")
		}
		return res, rep, nil
	}

	// Traced: what tracing costs the loops. Spans and per-op probes run
	// between ops, so they show as fewer primary ops per second in the
	// traced slices than in the untraced ones, that is, as extra loop
	// time per op.
	var rate [2]float64
	for t := range rate {
		if len(ops[t][spec.primary]) == 0 || sliceTime[t] <= 0 {
			return result{}, report{}, errors.New("a traced or untraced slice completed no operation")
		}
		rate[t] = float64(len(ops[t][spec.primary])) / sliceTime[t].Seconds()
	}
	overhead := (rate[0]/rate[1] - 1) * 100
	local, localSpans, err := localProbes(runDir, tr, cfg.seed)
	if err != nil {
		return result{}, report{}, fmt.Errorf("local probes: %w", err)
	}
	m := perLayer(acc, results, local, disk, meta, userWritten, overhead)
	for _, def := range perLayerMetrics {
		add(res.Metrics, def.name, def.unit, m[def.name])
	}
	add(rep.Detail, "untraced_ops_per_s", "1/s", rate[0])
	add(rep.Detail, "traced_ops_per_s", "1/s", rate[1])
	spans := localSpans
	for _, r := range results {
		spans = append(spans, r.spans...)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", spec.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return result{}, report{}, err
	}
	rep.Provenance["spans"] = fmt.Sprintf("%d spans in %s", len(spans), path)
	return res, rep, nil
}

// provenance records what produced a run.
func provenance(cfg config, d *deployment) map[string]any {
	return map[string]any{
		"commit":        cfg.commit,
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"seed":          cfg.seed,
		"node_flags":    d.roleArgs(),
		"flush_policy":  "-sync-writes off (blobnode default): page appends reach the OS page cache without fsync",
		"page_size":     pageSize,
		"segment_size":  "4 MiB (diskstore default)",
		"disk_cache":    diskCache,
		"client_cache":  "2^20 metadata nodes per client",
		"blob_capacity": capacity,
		"topology":      fmt.Sprintf("1 pmanager+directory, %d vmanager replicas (1 shard), %d provider+metadata nodes", vmReplicas, storageNodes),
	}
}

// sourceDigest hashes the Go sources under root, so a result names the
// code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() && path != root && strings.HasPrefix(de.Name(), ".") {
			return filepath.SkipDir
		}
		if de.IsDir() || !(strings.HasSuffix(path, ".go") || de.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func printReport(w io.Writer, rep report, res result) {
	spec, _ := findWorkload(rep.Workload)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(w, "  why: %s\n", spec.why)
	fmt.Fprintf(w, "  deployment: %s; flush policy %s\n", rep.Provenance["topology"], rep.Provenance["flush_policy"])
	fmt.Fprintf(w, "  go %s, nproc %v, GOMAXPROCS %v, commit %s\n", rep.Provenance["go"], rep.Provenance["nproc"], rep.Provenance["gomaxprocs"], rep.Provenance["commit"])
	fmt.Fprintf(w, "  %d ops attempted, %d failed or mis-verified, correct=%v\n", res.Attempted, res.Failed, res.Correct)
	if rep.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", rep.FirstError)
	}
	section := func(title string, defs []metricDef, m map[string]metricValue) {
		fmt.Fprintf(w, "  %s:\n", title)
		for _, d := range defs {
			if v, ok := m[d.name]; ok {
				fmt.Fprintf(w, "    %-34s %14.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
	var detail []metricDef
	for _, k := range []string{"write", "read"} {
		for _, s := range []string{"_p50_ms", "_p95_ms", "_p99_ms", "_MBps", "_samples"} {
			detail = append(detail, metricDef{k + s, ""})
		}
	}
	detail = append(detail, metricDef{"error_rate", ""}, metricDef{"stored_bytes_per_user_byte", ""},
		metricDef{"user_bytes_written", ""}, metricDef{"untraced_ops_per_s", ""}, metricDef{"traced_ops_per_s", ""})
	section("by operation", detail, rep.Detail)
	if rep.Trace {
		section("per layer", perLayerMetrics, res.Metrics)
	} else {
		section("end to end", e2eMetrics, res.Metrics)
	}
	line, _ := json.Marshal(rep)
	fmt.Fprintln(w, reportPrefix+string(line))
}
