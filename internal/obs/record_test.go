package obs_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
		Env: obs.CurrentEnv(),
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
