package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// -compare A B: A and B are files of run records (one JSON object per
// line, as runs append them), each a set of runs — typically ten seeds of
// every workload.  For every workload and end-to-end metric it prints both
// sides' median and quartiles over the runs, the change and the bound, and
// one of three verdicts; it also demands that the exact outputs (checksum,
// octant counts, comm volume) of runs with the same workload and seed agree.

// readRecords reads the untraced, non-quick run records of a file.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Schema != schema {
			return nil, fmt.Errorf("%s:%d: schema %q, want %q", path, line, rec.Schema, schema)
		}
		if rec.Trace == 0 && !rec.Quick {
			recs = append(recs, rec)
		}
	}
	return recs, sc.Err()
}

// verdict judges side B against side A for one metric.  worse is B's median
// change in the bad direction as a share of A's median.
func verdict(spec metricSpec, a, b []float64) (worse float64, label string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if spec.Better == higher {
		worse = -worse
	}
	if spread(a) > spec.Bound || spread(b) > spec.Bound {
		// Too noisy to call, unless every run of B beats every run of A.
		allBetter := slices.Max(b) < slices.Min(a)
		if spec.Better == higher {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if allBetter {
			return worse, "ok"
		}
		return worse, "unresolved"
	}
	if worse > spec.Bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints the comparison and reports whether every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	allOK := true

	// Exact outputs, run by run.
	type key struct {
		workload string
		seed     int64
	}
	exact := func(r runRecord) string {
		return fmt.Sprintf("checksum %s octants %d→%d comm %d msgs/%d bytes correct=%v",
			r.Checksum, r.OctantsIn, r.OctantsOut, r.CommMsgs, r.CommBytes, r.Correct)
	}
	seen := make(map[key]string)
	for _, r := range a {
		seen[key{r.Workload, r.Seed}] = exact(r)
	}
	for _, r := range slices.Concat(a, b) {
		if !r.Correct {
			fmt.Fprintf(w, "FAILED RUN   %s seed %d: %v\n", r.Workload, r.Seed, r.Failures)
			allOK = false
		}
		if want, ok := seen[key{r.Workload, r.Seed}]; ok && exact(r) != want {
			fmt.Fprintf(w, "OUTPUT DIFFERS %s seed %d: %s vs %s\n", r.Workload, r.Seed, want, exact(r))
			allOK = false
		}
	}

	values := func(recs []runRecord, workload, metric string) []float64 {
		var vs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	fmt.Fprintf(w, "%-20s %-20s %4s %12s %12s %12s   %4s %12s %12s %12s  %8s %6s  %s\n",
		"workload", "metric", "nA", "A q1", "A median", "A q3", "nB", "B q1", "B median", "B q3", "worse", "bound", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			va, vb := values(a, wl.name, spec.Name), values(b, wl.name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-20s %-20s missing on one side (%d vs %d runs)\n", wl.name, spec.Name, len(va), len(vb))
				allOK = false
				continue
			}
			worse, label := verdict(spec, va, vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-20s %-20s %4d %12.6g %12.6g %12.6g   %4d %12.6g %12.6g %12.6g  %+7.2f%% %5.0f%%  %s\n",
				wl.name, spec.Name, len(va), a1, median(va), a3, len(vb), b1, median(vb), b3, 100*worse, 100*spec.Bound, label)
			allOK = allOK && label == "ok"
		}
	}
	return allOK, nil
}
