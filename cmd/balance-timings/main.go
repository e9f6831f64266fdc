// Command balance-timings is the analogue of p4est's `timings` example: it
// runs the one-pass 2:1 balance on a chosen workload and prints the
// per-phase breakdown and communication statistics, for the old and/or the
// new algorithm.
//
// Examples:
//
//	balance-timings -workload fractal -dim 3 -ranks 8 -level 3
//	balance-timings -workload icesheet -ranks 16 -algo both
//	balance-timings -workload random -dim 2 -ranks 4 -notify naive
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/obs"
	"repro/internal/stats"

	octbalance "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("balance-timings: ")
	var (
		dim       = flag.Int("dim", 3, "dimension (2 or 3)")
		ranks     = flag.Int("ranks", 8, "number of simulated ranks")
		level     = flag.Int("level", 3, "base uniform refinement level")
		depth     = flag.Int("depth", 4, "additional adaptive refinement depth")
		k         = flag.Int("k", 0, "balance condition 1..dim (0 = full corner balance)")
		workloadF = flag.String("workload", "fractal", "workload: fractal, icesheet, random")
		algoF     = flag.String("algo", "both", "algorithm: old, new, both")
		notifyF   = flag.String("notify", "notify", "pattern reversal: naive, ranges, notify")
		grid      = flag.Int("grid", 8, "ice sheet tree grid extent")
		seed      = flag.Int64("seed", 42, "random workload seed")
		prob      = flag.Int("prob", 22, "random workload split probability (percent)")
		workersF  = flag.Int("workers", 0, "rank-local worker pool size (0 = the CPUs shared among the ranks, 1 = serial, -1 = one per CPU)")
		jsonOut   = flag.String("json", "", "also write the runs as a bench record to this path")
	)
	flag.Parse()

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

	fmt.Printf("forest: %v, ranks %d, workload %s, notify %s\n\n",
		base.Conn, *ranks, *workloadF, scheme)

	kEff := *k
	if kEff == 0 {
		kEff = base.Conn.Dim()
	}
	rec := &obs.BenchRecord{
		Schema: obs.BenchSchema, Workload: *workloadF, Dim: base.Conn.Dim(),
		Ranks: *ranks, K: kEff, Notify: scheme.String(),
		BaseLevel: *level, MaxLevel: *level + *depth, Env: obs.CurrentEnv(),
	}

	tbl := stats.NewTable("one-pass 2:1 balance (seconds; comm volume in bytes)",
		"algo", "octants before", "octants after", "total", "local bal", "notify", "query/resp", "rebalance", "msgs", "bytes")
	var results []octbalance.Result
	for _, algo := range algos {
		e := base
		e.Options = octbalance.BalanceOptions{Algo: algo, Notify: scheme, Workers: *workersF}
		res := e.Run()
		results = append(results, res)
		rec.Runs = append(rec.Runs, res.BenchRun())
		msgs, bytes := res.CommTotals()
		agg := res.PhaseAgg
		tbl.AddRow(algo, res.OctantsBefore, res.OctantsAfter,
			agg[octbalance.PhaseTotal].Max, agg["local-balance"].Max, agg["notify"].Max,
			agg["query-response"].Max, agg["rebalance"].Max, msgs, bytes)
	}
	fmt.Print(tbl)
	if len(results) == 2 {
		oldAgg, newAgg := results[0].PhaseAgg, results[1].PhaseAgg
		fmt.Printf("\nspeedup (old/new): total %s, local balance %s, rebalance %s\n",
			stats.SpeedupRatio(oldAgg[octbalance.PhaseTotal].Max, newAgg[octbalance.PhaseTotal].Max),
			stats.SpeedupRatio(oldAgg["local-balance"].Max, newAgg["local-balance"].Max),
			stats.SpeedupRatio(oldAgg["rebalance"].Max, newAgg["rebalance"].Max))
		if results[0].OctantsAfter != results[1].OctantsAfter {
			fmt.Fprintln(os.Stderr, "WARNING: old and new algorithms produced different octant counts")
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		if err := obs.WriteBenchRecord(*jsonOut, rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nrecord: %s\n", *jsonOut)
	}
}
