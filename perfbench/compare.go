package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparator needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runOutput is one saved run: its report line and its result line.
type runOutput struct {
	rep report
	res result
}

// loadRuns reads every file in dir as the saved standard output of one
// run. Files without a result (failed runs) are reported and skipped.
func loadRuns(dir string, warn io.Writer) ([]runOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runOutput
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(dir, de.Name())
		r, err := parseRun(path)
		if err != nil {
			fmt.Fprintf(warn, "skip %s: %v\n", path, err)
			continue
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func parseRun(path string) (runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOutput{}, err
	}
	defer f.Close()
	var out runOutput
	var last string
	var haveReport bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, reportPrefix) {
			if err := json.Unmarshal([]byte(line[len(reportPrefix):]), &out.rep); err != nil {
				return out, fmt.Errorf("report line: %w", err)
			}
			haveReport = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if !haveReport {
		return out, fmt.Errorf("no %q line", strings.TrimSpace(reportPrefix))
	}
	if err := json.Unmarshal([]byte(last), &out.res); err != nil {
		return out, fmt.Errorf("result line: %w", err)
	}
	return out, nil
}

// clean reports whether every op of the run succeeded and verified.
func (r runOutput) clean() bool { return r.res.Correct && r.res.Failed == 0 }

// values collects one metric of one workload and mode across the clean
// runs, in file order. A run with a failed or mis-verified op measured
// something other than the workload, so it enters no median.
func values(runs []runOutput, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.rep.Workload != workload || r.rep.Trace != trace || !r.clean() {
			continue
		}
		if v, ok := r.res.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// tally sums one workload's runs and ops on one side, every run counted.
type tally struct {
	runs, dirty       int
	attempted, failed int64
}

func tallyRuns(runs []runOutput, workload string) tally {
	var t tally
	for _, r := range runs {
		if r.rep.Workload != workload {
			continue
		}
		t.runs++
		if !r.clean() {
			t.dirty++
		}
		t.attempted += r.res.Attempted
		t.failed += r.res.Failed
	}
	return t
}

func (t tally) errorRate() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// verdict judges change runs b against parent runs a. A gain needs the
// change to win at least nine tenths of the pairs (ties count for
// neither) and the medians to differ by more than the parent's
// quartile spread; when the change failed a larger share of its ops
// (moreFailures), a gain does not count and the metric is unresolved. A
// spread wider than the bound leaves the metric unresolved unless every
// change run beats every parent run. Otherwise the change is worse when
// its median is worse by more than the bound.
func verdict(a, b []float64, higherBetter bool, bound float64, moreFailures bool) string {
	if len(a) == 0 || len(b) == 0 {
		return "no data"
	}
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	if better(mb, ma) && float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > qa3-qa1 {
		if moreFailures {
			return "unresolved"
		}
		return "better"
	}
	if rel(qa3-qa1, ma) > bound || rel(qb3-qb1, mb) > bound {
		// Too noisy to judge, unless the change's worst run still
		// beats the parent's best.
		worstB, bestA := b[0], a[0]
		for _, v := range b {
			if better(worstB, v) {
				worstB = v
			}
		}
		for _, v := range a {
			if better(v, bestA) {
				bestA = v
			}
		}
		if better(worstB, bestA) {
			return "within bound"
		}
		return "unresolved"
	}
	worsening := rel(mb-ma, ma)
	if higherBetter {
		worsening = -worsening
	}
	if worsening > bound {
		return "worse"
	}
	return "within bound"
}

// rel is x as a share of base.
func rel(x, base float64) float64 {
	if base == 0 {
		if x == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return x / math.Abs(base)
}

// compareMain compares two directories of saved runs, parent first,
// against the metrics, directions and bounds of BENCHMARK.json in the
// working directory (the repository root).
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <parent-runs-dir> <change-runs-dir>")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: BENCHMARK.json: %v\n", err)
		return 1
	}
	a, errA := loadRuns(args[0], os.Stderr)
	b, errB := loadRuns(args[1], os.Stderr)
	if errA != nil || errB != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v %v\n", errA, errB)
		return 1
	}
	for _, spec := range workloads {
		ta, tb := tallyRuns(a, spec.name), tallyRuns(b, spec.name)
		if ta.runs == 0 && tb.runs == 0 {
			continue
		}
		moreFailures := tb.errorRate() > ta.errorRate()
		fmt.Fprintf(w, "== %s (A = %s, B = %s)\n", spec.name, args[0], args[1])
		for _, side := range []struct {
			name string
			t    tally
		}{{"A", ta}, {"B", tb}} {
			fmt.Fprintf(w, "%s: %d runs, %d left out for failed or mis-verified ops; %d of %d ops failed (error rate %.3g)\n",
				side.name, side.t.runs, side.t.dirty, side.t.failed, side.t.attempted, side.t.errorRate())
		}
		if moreFailures {
			fmt.Fprintln(w, "B failed a larger share of its ops than A: no gain counts")
		}
		fmt.Fprintf(w, "%-28s %4s %-30s %4s %-30s %10s  %s\n", "end-to-end metric", "nA", "A median [q1, q3]", "nB", "B median [q1, q3]", "delta", "verdict")
		for _, m := range bf.EndToEnd {
			va, vb := values(a, spec.name, false, m.Name), values(b, spec.name, false, m.Name)
			fmt.Fprintf(w, "%-28s %4d %-30s %4d %-30s %10s  %s (bound %.0f%%)\n", m.Name, len(va), spread(va), len(vb), spread(vb),
				delta(va, vb), verdict(va, vb, m.Better == "higher", m.Bound, moreFailures), 100*m.Bound)
		}
		fmt.Fprintf(w, "%-34s %4s %12s %4s %12s %10s\n", "per-layer metric (traced runs)", "nA", "A median", "nB", "B median", "delta")
		for _, m := range bf.PerLayer {
			va, vb := values(a, spec.name, true, m.Name), values(b, spec.name, true, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-34s %4d %12s %4d %12s %10s\n", m.Name, len(va), medianOf(va), len(vb), medianOf(vb), delta(va, vb))
		}
	}
	return 0
}

func medianOf(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", median(vs))
}

func spread(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

func delta(a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "-"
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "-"
	}
	// Three significant digits, so a resolved but tiny change reads as
	// such rather than as 0.0%.
	return fmt.Sprintf("%+.3g%%", 100*(mb-ma)/math.Abs(ma))
}
