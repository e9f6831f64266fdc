// Command benchmark is the repository's benchmark: four workloads around
// Forest.Balance, end-to-end metrics measured with tracing off, and a traced
// run that times every layer from outside through its public functions.
// See README.md in this directory.
//
//	benchmark -workload fractal3d_p1 -seed 0 -seconds 25 -trace 0
//	benchmark                         (all four workloads)
//	benchmark -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// result is the last line a run prints on standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// defaultOutDir keeps results next to the benchmark's sources whether the
// program is started from the repository root or from this directory.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "golden.json")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, one after the other)")
	flag.Int64Var(&cfg.seed, "seed", 0, "input seed; 0 is the canonical input with pinned checksums")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny meshes and two repetitions: a smoke test, not a measurement")
	flag.StringVar(&cfg.outDir, "outdir", defaultOutDir(), "directory for result files, traces and sockets")
	out := flag.String("out", "", "file to append the run record to (default <outdir>/runs.jsonl)")
	compare := flag.Bool("compare", false, "compare two run-record files: -compare A.jsonl B.jsonl")
	list := flag.Bool("list", false, "list the workloads and exit")
	flag.Parse()
	cfg.trace = trace != 0

	switch {
	case *list:
		for _, wl := range workloads {
			fmt.Printf("%-20s P=%d  %s\n", wl.name, wl.ranks, wl.why)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	case flag.NArg() > 0:
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	}
	if *out == "" {
		*out = filepath.Join(cfg.outDir, "runs.jsonl")
	}
	allOK := true
	for _, name := range names {
		cfg.workload = name
		rec, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
		report(rec)
		allOK = allOK && rec.Correct
	}
	if !allOK {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// appendRecord appends the record as one JSON line.
func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run for people on standard error and the result line
// for the driver on standard output.
func report(rec *runRecord) {
	e := rec.Env
	fmt.Fprintf(os.Stderr, "%s  seed=%d trace=%d  %s\n", rec.Workload, rec.Seed, rec.Trace, rec.Input)
	fmt.Fprintf(os.Stderr, "  nproc=%d GOMAXPROCS=%d %s GOGC=%s commit=%s  warm-up=%d timed=%d\n",
		e.NumCPU, e.GoMaxProcs, e.GoVersion, e.GOGC, e.Commit, rec.WarmupReps, rec.TimedReps)
	fmt.Fprintf(os.Stderr, "  checksum=%s octants %d → %d  comm %d msgs / %d bytes\n",
		rec.Checksum, rec.OctantsIn, rec.OctantsOut, rec.CommMsgs, rec.CommBytes)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: make(map[string]resultMetric)}
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %-7s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(os.Stderr, "  [q1 %.6g, q3 %.6g, n=%d]", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintln(os.Stderr)
		res.Metrics[name] = resultMetric{Value: m.Value, Unit: m.Unit}
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "  FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
