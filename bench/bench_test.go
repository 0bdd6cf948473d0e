package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all five workloads at N=256 for 9 epochs, untraced and
// traced, and checks that what they emit is what BENCHMARK.json names:
// every metric once, with its unit and a finite value, and that the
// members ended every epoch holding the group key (Correct).
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for _, named := range bf.Workloads {
		w, ok := findWorkload(named.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", named.Name)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
		for _, traced := range []bool{false, true} {
			o := options{seed: 1, traced: traced, maxEpochs: 9, scratch: filepath.Join(dir, "scratch"), outDir: filepath.Join(dir, "out")}
			res, err := runWorkload(w.scaled(256), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, got.Value)
				}
			}
			if traced {
				checkTrace(t, filepath.Join(o.outDir, "trace_"+w.name+".json"))
			}
		}
	}
}

// checkTrace verifies the span tree: children lie inside their parent and
// do not overlap, so each epoch's self times add up to the epoch.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SelfMs map[string]float64 `json:"self_ms_total"`
		Spans  []span             `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	childSum := map[int]float64{}
	roots := 0.0
	for _, s := range doc.Spans {
		byID[s.ID] = s
		if s.End < s.Start {
			t.Errorf("%s: span %s ends before it starts", path, s.Name)
		}
		if s.Parent == 0 {
			roots += s.End - s.Start
		}
	}
	for _, s := range doc.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("%s: span %s has unknown parent %d", path, s.Name, s.Parent)
		}
		if s.Start < p.Start-1e-6 || s.End > p.End+1e-6 {
			t.Errorf("%s: span %s [%f,%f] outside parent %s [%f,%f]", path, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		childSum[s.Parent] += s.End - s.Start
	}
	for id, sum := range childSum {
		if p := byID[id]; sum > (p.End-p.Start)*1.05 {
			t.Errorf("%s: children of %s sum to %f ms, the span lasted %f", path, p.Name, sum, p.End-p.Start)
		}
	}
	self := 0.0
	for _, v := range doc.SelfMs {
		self += v
	}
	if len(doc.Spans) == 0 || math.Abs(self-roots) > 0.05*roots {
		t.Errorf("%s: self times sum to %f ms, root spans to %f (%d spans)", path, self, roots, len(doc.Spans))
	}
}

func TestSegmented(t *testing.T) {
	// A slow third of the run is outvoted by the other two.
	perEpoch := scalars([]float64{10, 10, 10, 10, 10, 10, 30, 30, 30})
	p50, spread, n, _ := segmented(perEpoch, 0.5)
	if p50 != 10 || n != 9 || spread != 2 {
		t.Errorf("segmented = %v spread %v n %d, want 10, 2, 9", p50, spread, n)
	}
}
