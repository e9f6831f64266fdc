package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
)

// This file defines the machine-readable benchmark record written by
// cmd/bench as BENCH_<workload>.json — the perf trajectory every PR can be
// compared against.  The schema is versioned; Validate is the CI gate that
// keeps the records well-formed.

// BenchSchema is the current record schema identifier.
const BenchSchema = "octbalance-bench/v1"

// BenchRecord is one benchmark invocation: a workload configuration, one
// BenchRun per balance algorithm and the execution environment.
type BenchRecord struct {
	Schema    string     `json:"schema"`
	Workload  string     `json:"workload"`
	Dim       int        `json:"dim"`
	Ranks     int        `json:"ranks"`
	K         int        `json:"k"`
	Notify    string     `json:"notify"`
	BaseLevel int        `json:"base_level"`
	MaxLevel  int        `json:"max_level"`
	Runs      []BenchRun `json:"runs"`
	Env       EnvInfo    `json:"env"`
}

// BenchRun reports one balance execution: octant counts, the per-phase
// cross-rank aggregates (seconds), and the communication volumes.
type BenchRun struct {
	Algo string `json:"algo"`
	// Workers is the rank-local worker pool size the run used: cmd/bench
	// records max(1, the run's GaugeLocalWorkers maximum), so a run under
	// Balance's default pool shows the size that default resolved to.
	// cmd/bench -workers 1,N records a serial and a parallel run per
	// algorithm.
	Workers int `json:"workers,omitempty"`
	// Codec is the wire codec of the run ("v0"/"v1"); empty in records
	// predating the codec dimension (which ran the v0 format).
	Codec         string                `json:"codec,omitempty"`
	OctantsBefore int64                 `json:"octants_before"`
	OctantsAfter  int64                 `json:"octants_after"`
	Phases        map[string]Summary    `json:"phases"`
	Comm          map[string]CommVolume `json:"comm"`
	Net           NetVolume             `json:"net"`
	TotalMessages int64                 `json:"total_messages"`
	TotalBytes    int64                 `json:"total_bytes"`
	// TotalRawBytes is the codec-independent (WireV0-equivalent) volume of
	// the codec-metered phases; TotalBytes/TotalRawBytes per phase is the
	// compression ratio.  Zero in records without raw metering.
	TotalRawBytes int64 `json:"total_raw_bytes,omitempty"`
}

// CommVolume is the logical traffic of one phase label (the paper's
// message/byte accounting; retransmissions excluded by construction).
type CommVolume struct {
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	// RawBytes is the WireV0-equivalent size of the phase's codec-metered
	// payloads (zero where the phase is unmetered).
	RawBytes          int64 `json:"raw_bytes,omitempty"`
	MaxQueueDepth     int64 `json:"max_queue_depth,omitempty"`
	PeakInFlightBytes int64 `json:"peak_in_flight_bytes,omitempty"`
}

// NetVolume is the physical transport traffic (acks, retries, duplicates),
// zero on the default perfect transport.
type NetVolume struct {
	DataPackets        int64 `json:"data_packets"`
	AckPackets         int64 `json:"ack_packets"`
	Retries            int64 `json:"retries"`
	DupsDropped        int64 `json:"dups_dropped"`
	WireBytes          int64 `json:"wire_bytes"`
	BackpressureStalls int64 `json:"backpressure_stalls"`
}

// EnvInfo pins the execution environment of a record.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentEnv captures the running process's environment.
func CurrentEnv() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Validate checks the structural invariants of a record; CI fails the
// bench-smoke job on any error.
func (r *BenchRecord) Validate() error {
	if r.Schema != BenchSchema {
		return fmt.Errorf("schema %q, want %q", r.Schema, BenchSchema)
	}
	if r.Workload == "" {
		return fmt.Errorf("empty workload")
	}
	if r.Ranks < 1 {
		return fmt.Errorf("ranks %d < 1", r.Ranks)
	}
	if r.Dim != 2 && r.Dim != 3 {
		return fmt.Errorf("dim %d not in {2, 3}", r.Dim)
	}
	if r.K < 1 || r.K > r.Dim {
		return fmt.Errorf("k %d outside 1..%d", r.K, r.Dim)
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("no runs")
	}
	for i, run := range r.Runs {
		if err := run.validate(); err != nil {
			return fmt.Errorf("run %d (%s): %w", i, run.Algo, err)
		}
		// A single rank legitimately communicates nothing; everyone else
		// must report per-phase volumes.
		if r.Ranks > 1 && len(run.Comm) == 0 {
			return fmt.Errorf("run %d (%s): no comm volumes", i, run.Algo)
		}
	}
	return nil
}

func (run BenchRun) validate() error {
	if run.Algo == "" {
		return fmt.Errorf("empty algo")
	}
	if run.OctantsBefore <= 0 || run.OctantsAfter < run.OctantsBefore {
		return fmt.Errorf("octant counts %d -> %d not plausible", run.OctantsBefore, run.OctantsAfter)
	}
	if len(run.Phases) == 0 {
		return fmt.Errorf("no phase aggregates")
	}
	for name, s := range run.Phases {
		for label, v := range map[string]float64{"min": s.Min, "mean": s.Mean, "max": s.Max, "imbalance": s.Imbalance} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("phase %s: %s = %v", name, label, v)
			}
		}
		if s.Min > s.Mean || s.Mean > s.Max {
			return fmt.Errorf("phase %s: min %v <= mean %v <= max %v violated", name, s.Min, s.Mean, s.Max)
		}
		if s.Imbalance < 1 && s.Max > 0 {
			return fmt.Errorf("phase %s: imbalance %v < 1", name, s.Imbalance)
		}
	}
	if run.TotalMessages < 0 || run.TotalBytes < 0 {
		return fmt.Errorf("negative comm totals")
	}
	return nil
}

// WriteBenchRecord validates and writes the record as indented JSON.
func WriteBenchRecord(path string, r *BenchRecord) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("obs: refusing to write invalid bench record: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchRecord reads a record without validating it (callers decide).
func ReadBenchRecord(path string) (*BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
