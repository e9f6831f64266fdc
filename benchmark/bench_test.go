package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the tables in the code say the same thing.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if b.Workloads[i].Name != wl.name || b.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q / %q", i, b.Workloads[i], wl.name, wl.why)
		}
	}
	same := func(kind string, file, code []metricSpec) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(file), len(code))
			return
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var setup bool
	for _, m := range endToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if float64(b.RunSeconds) != 25 {
		t.Errorf("run_seconds %d differs from the -seconds default", b.RunSeconds)
	}
}

// TestQuickSmoke runs every workload on tiny meshes, untraced and traced,
// and checks that each run emits exactly the metrics BENCHMARK.json names,
// each with its unit and a finite value, and that the two ice-sheet
// workloads produce the same forest and the same logical traffic.
func TestQuickSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	records := make(map[string]*runRecord)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			rec, err := runWorkload(config{workload: wl.name, seed: 3, seconds: 1, trace: traced, quick: true, outDir: out})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					wl.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", wl.name, traced, len(rec.Metrics), len(want))
			}
			for _, spec := range want {
				m, ok := rec.Metrics[spec.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.name, traced, spec.Name)
				case m.Unit != spec.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", wl.name, spec.Name, m.Unit, spec.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", wl.name, spec.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", wl.name, spec.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(rec.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", wl.name, err)
				}
				netcomm := rec.Metrics["netcomm.data_packets"].Value
				if wl.socket != (netcomm > 0) {
					t.Errorf("%s: netcomm.data_packets = %v", wl.name, netcomm)
				}
				records[wl.name] = rec
			}
		}
	}
	a, s := records["icesheet2d_p8"], records["icesheet2d_p8_sock"]
	if a.Checksum != s.Checksum || a.OctantsOut != s.OctantsOut || a.CommMsgs != s.CommMsgs || a.CommBytes != s.CommBytes {
		t.Errorf("ice-sheet workloads differ: in-process %s %d octants %d msgs %d bytes, socket %s %d %d %d",
			a.Checksum, a.OctantsOut, a.CommMsgs, a.CommBytes, s.Checksum, s.OctantsOut, s.CommMsgs, s.CommBytes)
	}
	if a.CommMsgs == 0 || records["fractal3d_p1"].CommMsgs != 0 {
		t.Errorf("comm_msgs: icesheet %d (want > 0), fractal %d (want 0)", a.CommMsgs, records["fractal3d_p1"].CommMsgs)
	}
}

// A failed check must show: a wrong golden value fails every repetition,
// stops the run early and marks it incorrect.
func TestWrongOutputFailsTheRun(t *testing.T) {
	r, err := newRun(config{workload: "fractal3d_p1", quick: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	r.gold = &goldenEntry{Checksum: "0000000000000000"}
	rec := r.finish()
	if rec.Correct || rec.Failed != maxFailures || rec.Failed != rec.Attempted || len(rec.Metrics) != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d metrics=%d: a wrong checksum must fail every repetition",
			rec.Correct, rec.Attempted, rec.Failed, len(rec.Metrics))
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g := loadGolden()
	for _, wl := range workloads {
		e, ok := g[wl.name]
		if !ok || len(e.Checksum) != 16 || e.OctantsOut <= e.OctantsIn {
			t.Errorf("golden.json entry for %s: %+v", wl.name, e)
		}
	}
	if g["icesheet2d_p8"] != g["icesheet2d_p8_sock"] {
		t.Error("the two ice-sheet workloads must pin the same output")
	}
}

func TestVerdict(t *testing.T) {
	spec := metricSpec{Name: "balance_wall_s", Unit: "s", Better: lower, Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", spec, steady, steady, "ok"},
		{"5% slower", spec, steady, scale(steady, 1.05), "ok"},
		{"20% slower", spec, steady, scale(steady, 1.20), "regressed"},
		{"faster", spec, steady, scale(steady, 0.5), "ok"},
		{"noisy", spec, noisy, noisy, "unresolved"},
		{"noisy but every run better", spec, noisy, scale(noisy, 0.4), "ok"},
		{"throughput down", metricSpec{Better: higher, Bound: 0.10}, steady, scale(steady, 0.8), "regressed"},
		{"throughput up", metricSpec{Better: higher, Bound: 0.10}, steady, scale(steady, 1.3), "ok"},
	} {
		if _, got := verdict(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, checksum string) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 4; seed++ {
			for _, wl := range workloads {
				rec := &runRecord{Schema: schema, Workload: wl.name, Seed: seed, Correct: true, Checksum: checksum,
					Metrics: make(map[string]recordedMetric)}
				for _, spec := range endToEnd {
					rec.Metrics[spec.Name] = recordedMetric{Value: wall * (1 + 0.001*float64(seed)), Unit: spec.Unit}
				}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a, same, slow, wrong := write("a", 1, "x"), write("same", 1, "x"), write("slow", 1.5, "x"), write("wrong", 1, "y")
	for _, tc := range []struct {
		b    string
		ok   bool
		text string
	}{
		{same, true, "ok"}, {slow, false, "regressed"}, {wrong, false, "OUTPUT DIFFERS"},
	} {
		var buf bytes.Buffer
		ok, err := compareFiles(&buf, a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(buf.String(), tc.text) {
			t.Errorf("compare a %s: ok=%v, want %v with %q in:\n%s", filepath.Base(tc.b), ok, tc.ok, tc.text, buf.String())
		}
	}
}
