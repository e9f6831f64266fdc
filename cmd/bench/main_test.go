package main

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/comm"
	"repro/internal/obs"
)

// TestNotifySweepPinned pins the Section V table at P = 4 and 13: message
// counts and byte volumes of the three schemes under both codecs.
func TestNotifySweepPinned(t *testing.T) {
	rec, err := notifySweep([]int{4, 13}, []comm.WireCodec{comm.WireV0, comm.WireV1})
	if err != nil {
		t.Fatal(err)
	}
	want := []notifyRow{
		{Ranks: 4, Codec: "v0", NaiveMessages: 12, NaiveBytes: 168, RangesMessages: 12, RangesBytes: 768, NotifyMessages: 8, NotifyBytes: 128},
		{Ranks: 4, Codec: "v1", NaiveMessages: 12, NaiveBytes: 42, RangesMessages: 12, RangesBytes: 192, NotifyMessages: 8, NotifyBytes: 32},
		{Ranks: 13, Codec: "v0", NaiveMessages: 156, NaiveBytes: 2976, RangesMessages: 156, RangesBytes: 9984, NotifyMessages: 49, NotifyBytes: 800},
		{Ranks: 13, Codec: "v1", NaiveMessages: 156, NaiveBytes: 744, RangesMessages: 156, RangesBytes: 2496, NotifyMessages: 49, NotifyBytes: 200},
	}
	if len(rec.Sizes) != len(want) {
		t.Fatalf("%d rows, want %d", len(rec.Sizes), len(want))
	}
	for i, w := range want {
		got := rec.Sizes[i]
		// Raw bytes are the v0-equivalent volume, pinned by the v0 rows.
		got.NaiveRawBytes, got.RangesRawBytes, got.NotifyRawBytes = 0, 0, 0
		if got != w {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if err := rec.validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFractalSweepRecords runs -algo both over P = 1, 2 and checks that
// each rank count wrote its own valid record.
func TestFractalSweepRecords(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH.json")
	if err := run([]string{"-algo", "both", "-ranks", "1,2", "-level", "1", "-depth", "2", "-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_p%d.json", p))
		rec, err := obs.ReadBenchRecord(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rec.Ranks != p || len(rec.Runs) != 2 || rec.Runs[0].Algo != "old" || rec.Runs[1].Algo != "new" {
			t.Fatalf("%s: ranks %d, %d runs", path, rec.Ranks, len(rec.Runs))
		}
		for _, r := range rec.Runs {
			if r.Workers < 1 {
				t.Fatalf("%s: %s run records %d workers", path, r.Algo, r.Workers)
			}
		}
		if err := validate(path, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAgreeRejectsDifferentCounts checks the per-rank-count agreement of
// the balanced forest size.
func TestAgreeRejectsDifferentCounts(t *testing.T) {
	same := []obs.BenchRun{{Algo: "old", OctantsAfter: 64}, {Algo: "new", OctantsAfter: 64}}
	if err := agree(same); err != nil {
		t.Fatalf("equal counts rejected: %v", err)
	}
	differ := []obs.BenchRun{{Algo: "old", OctantsAfter: 64}, {Algo: "new", OctantsAfter: 71}}
	if err := agree(differ); err == nil {
		t.Fatal("different octant counts accepted")
	}
}
