// Command bench is the repository's benchmark: it runs a real
// server.Server on loopback, attaches members that speak the real wire
// codecs, drives seeded membership batches through RekeyNow one epoch at a
// time and reports what a member waits for (end to end) and, in a traced
// run, what each layer spent. README.md has the metric glossary and the
// reasons behind every workload; BENCHMARK.json at the repository root is
// the contract the driver checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// document is the machine-readable output: one per invocation.
type document struct {
	Commit     string       `json:"commit"`
	GoVersion  string       `json:"go"`
	NumCPU     int          `json:"nproc"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Runs       []*runResult `json:"runs"`
	SelfCheck  []string     `json:"selfcheck,omitempty"`
	// Claim is always null: this benchmark measures, it does not claim.
	Claim *string `json:"claim"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "run this workload only and end with the driver's one-line result (default: all five, untraced then traced)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same membership batches")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "with -workload: 1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced set twice with the same seed and compare against the bounds in BENCHMARK.json")
	scratch := flag.String("scratch", ".bench_build/scratch", "directory for state directories and crash images")
	outDir := flag.String("out", "bench/out", "directory for traces and result documents")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, scratch: *scratch, outDir: *outDir}
	doc := &document{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds,
	}

	switch {
	case *selfcheck:
		ok, err := selfCheck(doc, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := emit(doc, filepath.Join(*outDir, "selfcheck.json")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		doc.Runs = []*runResult{res}
		if err := emit(doc, filepath.Join(*outDir, fmt.Sprintf("result_%s_trace%d.json", w.name, *trace))); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(driverLine(res))
		return exitCode(doc)
	default:
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				o.traced = traced
				res, err := runWorkload(w, o)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
				doc.Runs = append(doc.Runs, res)
			}
		}
		if err := emit(doc, filepath.Join(*outDir, "result.json")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return exitCode(doc)
	}
}

// exitCode is non-zero when any run's outputs were wrong.
func exitCode(doc *document) int {
	for _, r := range doc.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// emit prints the document and saves a copy.
func emit(doc *document, path string) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// driverLine is the one-line result the benchmark driver reads: exactly
// correct, attempted, failed and the metrics of the run's mode.
func driverLine(res *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	data, _ := json.Marshal(line)
	return string(data)
}

// commit names the code that ran, when a git checkout is there to ask.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// contract is the part of BENCHMARK.json the self-check reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCounts are the counts that should repeat exactly for one seed.
var exactCounts = []string{"wraps_per_epoch", "wire_bytes_per_member"}

// selfCheck runs the untraced set twice with the same seed and compares
// every end-to-end metric against its bound. A noisy run leaves its
// workload unresolved rather than agreeing.
func selfCheck(doc *document, o options) (bool, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	o.traced = false
	ok := true
	for _, w := range workloads {
		var pair [2]*runResult
		for i := range pair {
			if pair[i], err = runWorkload(w, o); err != nil {
				return false, err
			}
			doc.Runs = append(doc.Runs, pair[i])
			ok = ok && pair[i].Correct
		}
		noisy := pair[0].Noisy || pair[1].Noisy
		for _, m := range c.EndToEnd {
			a, b := pair[0].Metrics[m.Name].Value, pair[1].Metrics[m.Name].Value
			diff := 0.0
			if a != 0 {
				diff = (b - a) / a
				if m.Better == "higher" {
					diff = -diff
				}
			}
			verdict := "agree"
			switch {
			case diff > m.Bound && noisy:
				verdict = "UNRESOLVED (noisy run)"
			case diff > m.Bound:
				verdict = "DISAGREE"
				ok = false
			}
			doc.SelfCheck = append(doc.SelfCheck, fmt.Sprintf("%s %s: %.6g vs %.6g, second worse by %+.1f%% (bound %.0f%%): %s",
				w.name, m.Name, a, b, 100*diff, 100*m.Bound, verdict))
		}
		var exact []string
		for _, name := range exactCounts {
			if pair[0].Metrics[name].Value == pair[1].Metrics[name].Value {
				exact = append(exact, name)
			}
		}
		sort.Strings(exact)
		doc.SelfCheck = append(doc.SelfCheck, fmt.Sprintf("%s counts repeated exactly: [%s]", w.name, strings.Join(exact, " ")))
	}
	return ok, nil
}
