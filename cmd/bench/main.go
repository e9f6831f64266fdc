// Command bench runs a workload end to end, measures the balance phases and
// their communication volumes, and writes a machine-readable
// BENCH_<workload>.json record (schema octbalance-bench/v1).  With -trace it
// additionally exports the run as a Chrome trace-event file (load it in
// chrome://tracing or Perfetto); -validate re-reads a record through the
// schema validator.
//
// Examples:
//
//	bench -workload fractal -ranks 8
//	bench -workload icesheet -ranks 16 -algo both -trace trace.json
//	bench -workers 4 -workload fractal      # serial AND 4-worker runs
//	bench -validate BENCH_fractal.json
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"

	octbalance "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		dim       = flag.Int("dim", 3, "dimension (2 or 3)")
		ranks     = flag.Int("ranks", 8, "number of simulated ranks")
		level     = flag.Int("level", 2, "base uniform refinement level")
		depth     = flag.Int("depth", 4, "additional adaptive refinement depth")
		k         = flag.Int("k", 0, "balance condition 1..dim (0 = full corner balance)")
		workloadF = flag.String("workload", "fractal", "workload: fractal, icesheet, random")
		algoF     = flag.String("algo", "new", "algorithm: old, new, both")
		notifyF   = flag.String("notify", "notify", "pattern reversal: naive, ranges, notify")
		grid      = flag.Int("grid", 8, "ice sheet tree grid extent")
		seed      = flag.Int64("seed", 42, "random workload seed")
		prob      = flag.Int("prob", 22, "random workload split probability (percent)")
		out       = flag.String("out", "", "output record path (default BENCH_<workload>.json)")
		traceOut  = flag.String("trace", "", "also export a Chrome trace-event file to this path")
		workersF  = flag.Int("workers", 0, "rank-local worker pool size; > 1 records a serial AND a parallel run per algorithm")
		codecF    = flag.String("codec", "v0", "wire codec: v0, v1, both (both records a run per codec)")
		poolF     = flag.Bool("pool", true, "recycle payload buffers through the comm pool")
		validateF = flag.String("validate", "", "validate an existing record and exit")
	)
	flag.Parse()

	if *validateF != "" {
		rec, err := obs.ReadBenchRecord(*validateF)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.Validate(); err != nil {
			log.Fatalf("%s: invalid: %v", *validateF, err)
		}
		fmt.Printf("%s: valid %s record (%s, %d ranks, %d runs)\n",
			*validateF, rec.Schema, rec.Workload, rec.Ranks, len(rec.Runs))
		return
	}

	var codecs []octbalance.WireCodec
	if *codecF == "both" {
		codecs = []octbalance.WireCodec{octbalance.WireV0, octbalance.WireV1}
	} else {
		codec, err := octbalance.ParseWireCodec(*codecF)
		if err != nil {
			log.Fatal(err)
		}
		codecs = []octbalance.WireCodec{codec}
	}
	octbalance.SetCommPooling(*poolF)

	var scheme octbalance.NotifyScheme
	switch *notifyF {
	case "naive":
		scheme = octbalance.SchemeNaive
	case "ranges":
		scheme = octbalance.SchemeRanges
	case "notify":
		scheme = octbalance.SchemeNotify
	default:
		log.Fatalf("unknown notify scheme %q", *notifyF)
	}

	base := octbalance.Experiment{
		Ranks:     *ranks,
		BaseLevel: *level,
		MaxLevel:  *level + *depth,
		K:         *k,
	}
	switch *workloadF {
	case "fractal":
		base.Conn = octbalance.FractalForest(*dim)
		base.Refine = octbalance.FractalRefine(*level + *depth)
	case "icesheet":
		if *dim != 2 {
			log.Print("note: ice sheet workload is 2D; ignoring -dim")
		}
		is := octbalance.NewIceSheet(2, *grid, *level+*depth)
		base.Conn = is.Conn
		base.Refine = is.Refine
	case "random":
		base.Conn = octbalance.FractalForest(*dim)
		base.Refine = octbalance.RandomRefine(*seed, *prob, *level+*depth)
	default:
		log.Fatalf("unknown workload %q", *workloadF)
	}

	var algos []octbalance.Algo
	switch *algoF {
	case "old":
		algos = []octbalance.Algo{octbalance.AlgoOld}
	case "new":
		algos = []octbalance.Algo{octbalance.AlgoNew}
	case "both":
		algos = []octbalance.Algo{octbalance.AlgoOld, octbalance.AlgoNew}
	default:
		log.Fatalf("unknown algorithm %q", *algoF)
	}

	kEff := *k
	if kEff == 0 {
		kEff = base.Conn.Dim()
	}
	rec := &obs.BenchRecord{
		Schema:    obs.BenchSchema,
		Workload:  *workloadF,
		Dim:       base.Conn.Dim(),
		Ranks:     *ranks,
		K:         kEff,
		Notify:    scheme.String(),
		BaseLevel: *level,
		MaxLevel:  *level + *depth,
		Env:       obs.CurrentEnv(),
	}

	fmt.Printf("forest: %v, ranks %d, workload %s, notify %s\n\n",
		base.Conn, *ranks, *workloadF, scheme)

	// With -workers N > 1 every algorithm runs twice — serial, then with the
	// rank-local worker pool — so the record carries its own serial-vs-
	// parallel comparison (the forest must be bit-identical either way).
	workerCounts := []int{1}
	if *workersF > 1 {
		workerCounts = append(workerCounts, *workersF)
	}
	tbl := stats.NewTable("one-pass 2:1 balance (cross-rank max, seconds)",
		"algo", "wk", "codec", "octants before", "octants after", "total", "local bal", "notify",
		"query/resp", "rebalance", "imbalance", "msgs", "bytes", "raw bytes", "ratio")
	for _, algo := range algos {
		for _, wk := range workerCounts {
			for _, codec := range codecs {
				e := base
				e.Options = octbalance.BalanceOptions{Algo: algo, Notify: scheme, Workers: wk, Codec: codec}
				e.Tracer = octbalance.NewTracer(e.Ranks)
				res := e.Run()
				rec.Runs = append(rec.Runs, res.BenchRun())
				msgs, bytes := res.CommTotals()
				raw := res.RawTotal()
				// Compression ratio over the codec-metered phases only, so
				// unmetered collective traffic does not dilute it.
				var metered int64
				for phase, st := range res.Comm {
					if !strings.HasPrefix(phase, "obs/") && st.RawBytes > 0 {
						metered += st.Bytes
					}
				}
				ratio := "-"
				if metered > 0 {
					ratio = fmt.Sprintf("%.2fx", float64(raw)/float64(metered))
				}
				total := res.PhaseAgg[octbalance.PhaseTotal]
				tbl.AddRow(algo, wk, codec, res.OctantsBefore, res.OctantsAfter,
					total.Max,
					res.PhaseAgg["local-balance"].Max, res.PhaseAgg["notify"].Max,
					res.PhaseAgg["query-response"].Max, res.PhaseAgg["rebalance"].Max,
					total.Imbalance, msgs, bytes, raw, ratio)
				if *traceOut != "" {
					path := *traceOut
					if len(algos) > 1 {
						path = insertSuffix(path, "_"+algo.String())
					}
					if len(workerCounts) > 1 {
						path = insertSuffix(path, fmt.Sprintf("_wk%d", wk))
					}
					if len(codecs) > 1 {
						path = insertSuffix(path, "_"+codec.String())
					}
					if err := e.Tracer.WriteTraceFile(path); err != nil {
						log.Fatal(err)
					}
					fmt.Printf("trace (%s, %d workers, %s): %s\n", algo, wk, codec, path)
				}
			}
		}
	}
	fmt.Print(tbl)

	path := *out
	if path == "" {
		path = "BENCH_" + *workloadF + ".json"
	}
	if err := obs.WriteBenchRecord(path, rec); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecord: %s\n", path)
}

// insertSuffix inserts s before the path's extension: trace.json ->
// trace_new.json.
func insertSuffix(path, s string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + s + path[i:]
	}
	return path + s
}
