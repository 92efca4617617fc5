package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, b := make([]byte, pageSize), make([]byte, pageSize)
	fillPage(a, 7, 42, 3)
	fillPage(b, 7, 42, 3)
	if string(a) != string(b) {
		t.Fatal("same seed, page and tag gave different bytes")
	}
	for _, c := range []struct {
		seed      int64
		page, tag uint64
	}{{8, 42, 3}, {7, 43, 3}, {7, 42, 4}} {
		fillPage(b, c.seed, c.page, c.tag)
		if string(a) == string(b) {
			t.Errorf("seed %d page %d tag %d gave the bytes of seed 7 page 42 tag 3", c.seed, c.page, c.tag)
		}
	}
}

func TestVerifierCatchesFlippedByte(t *testing.T) {
	buf, scratch := make([]byte, segBytes), make([]byte, pageSize)
	fillPages(buf, 1, 32, 0)
	preload := func(uint64) (uint64, error) { return 0, nil }
	if err := verifyPages(buf, scratch, 1, 32, preload); err != nil {
		t.Fatalf("intact segment: %v", err)
	}
	buf[5*pageSize+777] ^= 0x01
	err := verifyPages(buf, scratch, 1, 32, preload)
	if err == nil || !strings.Contains(err.Error(), "page 37") || !strings.Contains(err.Error(), "offset 777") {
		t.Fatalf("flipped byte: got %v, want a mismatch on page 37 at offset 777", err)
	}
}

func TestVerifierCatchesStaleWrite(t *testing.T) {
	const off = 3 * segBytes
	buf, scratch := make([]byte, segBytes), make([]byte, pageSize)
	fillPages(buf, 1, off/pageSize, ingestTag)
	if err := verifyIngested(buf, scratch, 1, off); err != nil {
		t.Fatalf("the ingested bytes: %v", err)
	}
	// One page still holding an earlier write's bytes, then one never
	// written (zeros).
	fillPage(buf[7*pageSize:8*pageSize], 1, off/pageSize+7, 0)
	if err := verifyIngested(buf, scratch, 1, off); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("page %d", off/pageSize+7)) {
		t.Fatalf("stale page 7: got %v, want a mismatch on it", err)
	}
	fillPages(buf, 1, off/pageSize, ingestTag)
	clear(buf[2*pageSize : 3*pageSize])
	if err := verifyIngested(buf, scratch, 1, off); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("page %d", off/pageSize+2)) {
		t.Fatalf("unwritten page 2: got %v, want a mismatch on it", err)
	}
}

func TestPercentileHandComputed(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(ten, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	var hundred []float64
	for i := 1; i <= 1000; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 0.99); got != 990 {
		t.Errorf("percentile(1..1000, 0.99) = %v, want 990", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	same := make([]float64, len(parent))
	for i, v := range parent {
		faster[i], slower[i], same[i] = v*0.8, v*1.3, v+0.01
	}
	noisy := []float64{5, 20, 8, 15, 30, 6, 12, 25, 7, 18}
	for _, c := range []struct {
		name         string
		b            []float64
		higher       bool
		moreFailures bool
		want         string
	}{
		{"faster latency", faster, false, false, "better"},
		{"faster latency, more failed ops", faster, false, true, "unresolved"},
		{"slower latency", slower, false, false, "worse"},
		{"slower latency, more failed ops", slower, false, true, "worse"},
		{"unchanged", same, false, false, "within bound"},
		{"lower throughput", faster, true, false, "worse"},
		{"noisy", noisy, false, false, "unresolved"},
	} {
		if got := verdict(parent, c.b, c.higher, 0.1, c.moreFailures); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareLeavesOutFailedRuns(t *testing.T) {
	run := func(p50 float64, correct bool, failed int64) runOutput {
		return runOutput{
			rep: report{Workload: "cutout"},
			res: result{Correct: correct, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{"op_p50_ms": {p50, "ms"}}},
		}
	}
	runs := []runOutput{run(1, true, 0), run(0.1, false, 1), run(2, true, 0), run(0.2, true, 3)}
	if got := values(runs, "cutout", false, "op_p50_ms"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("values = %v, want the clean runs' [1 2]", got)
	}
	tl := tallyRuns(runs, "cutout")
	if tl.runs != 4 || tl.dirty != 2 || tl.attempted != 400 || tl.failed != 4 || tl.errorRate() != 0.01 {
		t.Errorf("tally = %+v (error rate %v), want 4 runs, 2 dirty, 4 of 400 ops failed", tl, tl.errorRate())
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		E2E       []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.E2E, e2eMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
	for _, bw := range bf.Workloads {
		w, err := findWorkload(bw.Name)
		if err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
			continue
		}
		if bw.Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the benchmark %q", w.name, bw.Why, w.why)
		}
	}
}

// TestSmoke runs every workload for two seconds against blobnode built
// from this checkout, untraced and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real clusters")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "blobnode")
	build := exec.Command("go", "build", "-o", bin, "blob/cmd/blobnode")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build blobnode: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 2, trace: trace, blobnode: bin, workdir: dir, commit: "test"}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, rep, err := run(ctx, cfg)
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (%s)", w.name, trace, res.Correct, res.Attempted, res.Failed, rep.FirstError)
			}
			want := e2eMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
		}
	}
}
