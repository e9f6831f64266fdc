package main

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/comm"
	"repro/internal/notify"
)

// The -workload notify sweep compares the three communication-pattern
// reversal schemes of Section V — Naive (Figure 12), Ranges, and the
// divide-and-conquer Notify (Figure 13) — by message count and byte volume
// over the -ranks world sizes, on the neighbor-heavy patterns produced by
// space-filling-curve partitions.  Each scheme runs under every -codec, so
// the table doubles as the notify byte-volume A/B of the compact WireV1
// encoding.

// notifySchema versions the notify record.  v2 added the per-codec
// dimension (one row per world size and codec) and raw bytes.
const notifySchema = "octbalance-notifybench/v2"

// The pattern: every rank sends to the ranks within notifyWindow of it and,
// with probability notifyLongRange, to one random rank; the Ranges scheme
// gets notifyMaxRanges ranges.  notifySeed seeds the random links.
const (
	notifyWindow    = 2
	notifyLongRange = 0.3
	notifyMaxRanges = 8
	notifySeed      = 1
)

// notifyRecord is the machine-readable form of the sweep.
type notifyRecord struct {
	Schema    string      `json:"schema"`
	Window    int         `json:"window"`
	LongRange float64     `json:"long_range"`
	MaxRanges int         `json:"max_ranges"`
	Seed      int64       `json:"seed"`
	Sizes     []notifyRow `json:"sizes"`
}

// notifyRow is one (world size, codec) pair's measurements.
type notifyRow struct {
	Ranks          int    `json:"ranks"`
	Codec          string `json:"codec"`
	NaiveMessages  int64  `json:"naive_messages"`
	NaiveBytes     int64  `json:"naive_bytes"`
	NaiveRawBytes  int64  `json:"naive_raw_bytes"`
	RangesMessages int64  `json:"ranges_messages"`
	RangesBytes    int64  `json:"ranges_bytes"`
	RangesRawBytes int64  `json:"ranges_raw_bytes"`
	NotifyMessages int64  `json:"notify_messages"`
	NotifyBytes    int64  `json:"notify_bytes"`
	NotifyRawBytes int64  `json:"notify_raw_bytes"`
	FalsePositives int    `json:"false_positives"`
}

// pattern draws each rank's receiver list for a world of p ranks.
func pattern(rng *rand.Rand, p int) [][]int {
	receivers := make([][]int, p)
	for src := 0; src < p; src++ {
		for d := -notifyWindow; d <= notifyWindow; d++ {
			dst := src + d
			if dst != src && dst >= 0 && dst < p {
				receivers[src] = append(receivers[src], dst)
			}
		}
		if rng.Float64() < notifyLongRange {
			if dst := rng.Intn(p); dst != src {
				receivers[src] = append(receivers[src], dst)
			}
		}
	}
	return receivers
}

// notifySweep runs the three schemes at every world size and codec.  Notify
// must return exactly Naive's sender lists, and the lists must not depend
// on the codec.
func notifySweep(sizes []int, codecs []comm.WireCodec) (*notifyRecord, error) {
	rec := &notifyRecord{
		Schema: notifySchema, Window: notifyWindow, LongRange: notifyLongRange,
		MaxRanges: notifyMaxRanges, Seed: notifySeed,
	}
	for _, p := range sizes {
		receivers := pattern(rand.New(rand.NewSource(notifySeed)), p)
		var exactFirst [][]int
		for _, codec := range codecs {
			run := func(scheme func(*comm.Comm, []int) []int) (comm.Stats, [][]int) {
				w := comm.NewWorld(p)
				out := make([][]int, p)
				w.Run(func(c *comm.Comm) {
					out[c.Rank()] = scheme(c, receivers[c.Rank()])
				})
				return w.TotalStats(), out
			}
			naiveStats, exact := run(func(c *comm.Comm, r []int) []int { return notify.NaiveCodec(c, r, codec) })
			rangesStats, super := run(func(c *comm.Comm, r []int) []int { return notify.RangesCodec(c, r, notifyMaxRanges, codec) })
			notifyStats, got := run(func(c *comm.Comm, r []int) []int { return notify.NotifyCodec(c, r, codec) })
			for q := range exact {
				if !slices.Equal(exact[q], got[q]) {
					return nil, fmt.Errorf("P=%d codec %s rank %d: naive and notify disagree", p, codec, q)
				}
			}
			if exactFirst == nil {
				exactFirst = exact
			}
			for q := range exact {
				if !slices.Equal(exact[q], exactFirst[q]) {
					return nil, fmt.Errorf("P=%d rank %d: sender lists differ across codecs", p, q)
				}
			}
			falsePos := 0
			for q := range super {
				falsePos += len(super[q]) - len(exact[q])
			}
			rec.Sizes = append(rec.Sizes, notifyRow{
				Ranks:          p,
				Codec:          codec.String(),
				NaiveMessages:  naiveStats.Messages,
				NaiveBytes:     naiveStats.Bytes,
				NaiveRawBytes:  naiveStats.RawBytes,
				RangesMessages: rangesStats.Messages,
				RangesBytes:    rangesStats.Bytes,
				RangesRawBytes: rangesStats.RawBytes,
				NotifyMessages: notifyStats.Messages,
				NotifyBytes:    notifyStats.Bytes,
				NotifyRawBytes: notifyStats.RawBytes,
				FalsePositives: falsePos,
			})
		}
	}
	return rec, nil
}

// table renders the sweep as the Section V message-count/volume table.
func (rec *notifyRecord) table() *Table {
	tbl := NewTable("",
		"P", "codec", "naive msgs", "naive bytes", "ranges msgs", "ranges bytes", "notify msgs", "notify bytes",
		"notify/naive bytes", "false pos")
	for _, r := range rec.Sizes {
		tbl.AddRow(r.Ranks, r.Codec, r.NaiveMessages, r.NaiveBytes, r.RangesMessages, r.RangesBytes,
			r.NotifyMessages, r.NotifyBytes,
			fmt.Sprintf("%.3f", float64(r.NotifyBytes)/float64(r.NaiveBytes)), r.FalsePositives)
	}
	return tbl
}

// validate checks the structural invariants of a notify record.
func (rec *notifyRecord) validate() error {
	if len(rec.Sizes) == 0 {
		return fmt.Errorf("no sizes")
	}
	for i, r := range rec.Sizes {
		if r.Ranks < 1 {
			return fmt.Errorf("row %d: ranks %d < 1", i, r.Ranks)
		}
		if _, err := comm.ParseWireCodec(r.Codec); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if min(r.NaiveMessages, r.NaiveBytes, r.RangesMessages, r.RangesBytes,
			r.NotifyMessages, r.NotifyBytes, int64(r.FalsePositives)) < 0 {
			return fmt.Errorf("row %d (P=%d, %s): negative count", i, r.Ranks, r.Codec)
		}
	}
	return nil
}
