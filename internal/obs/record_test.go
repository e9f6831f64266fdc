package obs_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
)

func validRecord() *obs.BenchRecord {
	return &obs.BenchRecord{
		Schema: obs.BenchSchema, Workload: "fractal", Dim: 3, Ranks: 8, K: 3,
		Notify: "notify", BaseLevel: 2, MaxLevel: 6,
		Runs: []obs.BenchRun{{
			Algo: "new", OctantsBefore: 100, OctantsAfter: 150,
			Phases: map[string]obs.Summary{
				"local-balance": {Min: 1, Mean: 2, Max: 3, Imbalance: 1.5},
			},
			Comm:          map[string]obs.CommVolume{"notify": {Messages: 10, Bytes: 200}},
			TotalMessages: 10, TotalBytes: 200,
		}},
		Kernels: []obs.KernelResult{{Name: "MortonEncode", NsPerOp: 12.5, Iterations: 1000}},
		Env:     obs.CurrentEnv(),
	}
}

func TestBenchRecordRoundTrip(t *testing.T) {
	rec := validRecord()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := obs.WriteBenchRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadBenchRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, rec)
	}
}

func TestBenchRecordValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*obs.BenchRecord)
		errSub string
	}{
		{"schema", func(r *obs.BenchRecord) { r.Schema = "bogus/v0" }, "schema"},
		{"ranks", func(r *obs.BenchRecord) { r.Ranks = 0 }, "ranks"},
		{"dim", func(r *obs.BenchRecord) { r.Dim = 4 }, "dim"},
		{"k", func(r *obs.BenchRecord) { r.K = 5 }, "k 5"},
		{"no-runs", func(r *obs.BenchRecord) { r.Runs = nil }, "no runs"},
		{"octants", func(r *obs.BenchRecord) { r.Runs[0].OctantsAfter = 50 }, "octant counts"},
		{"phase-order", func(r *obs.BenchRecord) {
			r.Runs[0].Phases["local-balance"] = obs.Summary{Min: 3, Mean: 2, Max: 1, Imbalance: 1}
		}, "min"},
		{"phase-nan", func(r *obs.BenchRecord) {
			s := r.Runs[0].Phases["local-balance"]
			s.Mean = s.Mean * 2 // mean > max
			r.Runs[0].Phases["local-balance"] = s
		}, "local-balance"},
		{"imbalance", func(r *obs.BenchRecord) {
			r.Runs[0].Phases["local-balance"] = obs.Summary{Min: 1, Mean: 2, Max: 3, Imbalance: 0.5}
		}, "imbalance"},
		{"kernel-ns", func(r *obs.BenchRecord) { r.Kernels[0].NsPerOp = 0 }, "ns_per_op"},
		{"kernel-iters", func(r *obs.BenchRecord) { r.Kernels[0].Iterations = 0 }, "iterations"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := validRecord()
			c.mutate(rec)
			err := rec.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken record")
			}
			if !strings.Contains(err.Error(), c.errSub) {
				t.Errorf("error %q does not mention %q", err, c.errSub)
			}
		})
	}
}

func TestWriteBenchRecordRefusesInvalid(t *testing.T) {
	rec := validRecord()
	rec.Runs = nil
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := obs.WriteBenchRecord(path, rec); err == nil {
		t.Fatal("WriteBenchRecord wrote an invalid record")
	}
}

// kernelRecord builds a minimal valid record carrying the given kernels.
func kernelRecord(names ...string) *obs.BenchRecord {
	r := validRecord()
	r.Kernels = nil
	for _, n := range names {
		r.Kernels = append(r.Kernels, obs.KernelResult{
			Name: n, NsPerOp: 10, AllocsPerOp: 4, Iterations: 100,
		})
	}
	return r
}

func TestCompareKernelAllocs(t *testing.T) {
	base := kernelRecord("LocalBalanceSerial", "LocalBalancePar4")

	t.Run("passes within limit", func(t *testing.T) {
		cur := kernelRecord("LocalBalanceSerial", "LocalBalancePar4")
		skipped, err := obs.CompareKernelAllocs(base, cur, "LocalBalance", 10)
		if err != nil || len(skipped) != 0 {
			t.Fatalf("skipped %v, err %v; want none", skipped, err)
		}
	})

	t.Run("fails on regression", func(t *testing.T) {
		cur := kernelRecord("LocalBalanceSerial")
		cur.Kernels[0].AllocsPerOp = 50
		if _, err := obs.CompareKernelAllocs(base, cur, "LocalBalance", 10); err == nil {
			t.Fatal("regression not flagged")
		}
	})

	t.Run("reports kernels missing from baseline as skipped", func(t *testing.T) {
		cur := kernelRecord("LocalBalanceSerial", "LocalBalanceKeysSerial", "LocalBalanceKeysPar4")
		skipped, err := obs.CompareKernelAllocs(base, cur, "LocalBalance", 10)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"LocalBalanceKeysSerial", "LocalBalanceKeysPar4"}
		if !reflect.DeepEqual(skipped, want) {
			t.Fatalf("skipped %v, want %v", skipped, want)
		}
	})

	t.Run("errors when nothing compared", func(t *testing.T) {
		cur := kernelRecord("SortKeys")
		skipped, err := obs.CompareKernelAllocs(base, cur, "Sort", 10)
		if err == nil {
			t.Fatal("vacuous gate not flagged")
		}
		if !reflect.DeepEqual(skipped, []string{"SortKeys"}) {
			t.Fatalf("skipped %v, want [SortKeys]", skipped)
		}
	})
}

// TestCommittedBaselinesGateCurrentKernels loads the four committed records
// CI's alloc gates use as baselines (older ones carry keys this schema no
// longer has, such as "repr"; they must still load and validate) and checks
// that every -gate-prefix CI names still compares at least one kernel that
// cmd/bench measures today — a gate whose kernels were all deleted would
// otherwise only fail in CI.
func TestCommittedBaselinesGateCurrentKernels(t *testing.T) {
	current := make(map[string]bool)
	for _, k := range append(kernels.List(), kernels.NetList()...) {
		current[k.Name] = true
	}
	cases := []struct {
		file     string
		prefixes []string
	}{
		{"BENCH_local.json", []string{"LocalBalance", "Morton", "Sort", "LowerBound", "OverlapRange", "KeyCarry3", "KeyBatch"}},
		{"BENCH_wire.json", []string{"Wire"}},
		{"BENCH_ghost.json", []string{"Traverse", "Ghost"}},
		{"BENCH_net.json", []string{"Net"}},
	}
	for _, c := range cases {
		base, err := obs.ReadBenchRecord(filepath.Join("..", "..", "results", c.file))
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		cur := *base
		cur.Kernels = nil
		for _, k := range base.Kernels {
			if current[k.Name] {
				cur.Kernels = append(cur.Kernels, k)
			}
		}
		for _, prefix := range c.prefixes {
			if _, err := obs.CompareKernelAllocs(base, &cur, prefix, 0); err != nil {
				t.Errorf("%s, prefix %q: %v", c.file, prefix, err)
			}
		}
	}
}
