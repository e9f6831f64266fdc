// Package octbalance is a Go reproduction of Isaac, Burstedde & Ghattas,
// "Low-Cost Parallel Algorithms for 2:1 Octree Balance" (IPDPS 2012) — the
// p4est 2:1 balance paper.  It provides, from scratch:
//
//   - d-dimensional linear octrees (d = 2, 3) on the p4est integer lattice
//     with the full set of octant relations (package internal/octant);
//   - sorted-array octree algorithms: Linearize, Complete and the paper's
//     preclusion-based Reduce (internal/linear);
//   - the old (Figure 6) and new (Figure 7) subtree balance algorithms, the
//     O(1) remote balance formulas of Table II, and the seed-octant
//     construction of Section IV (internal/balance);
//   - an in-process message-passing runtime standing in for MPI, with
//     metered point-to-point and collective operations (internal/comm);
//   - the three communication-pattern reversal schemes of Section V,
//     including the divide-and-conquer Notify algorithm (internal/notify);
//   - a distributed forest of octrees on brick connectivities with
//     refinement, coarsening, weighted space-filling-curve partitioning and
//     the complete one-pass parallel 2:1 balance in both the old and the
//     new variant (internal/forest);
//   - the evaluation workloads, fractal and synthetic ice sheet
//     (internal/workload).
//
// This package is the public facade: it re-exports the types and
// constructors a downstream user needs, and adds the Experiment runner used
// by the benchmark driver cmd/bench, which regenerates the paper's figures,
// and by the benchmarks in bench_test.go.
package octbalance

import (
	"repro/internal/balance"
	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/linear"
	"repro/internal/mesh"
	"repro/internal/notify"
	"repro/internal/obs"
	"repro/internal/octant"
	"repro/internal/vtk"
	"repro/internal/workload"
)

// Core octant types and relations.
type (
	// Octant is a d-dimensional octree node on the integer lattice.
	Octant = octant.Octant
	// Dir is a neighbor direction with components in {-1, 0, +1}.
	Dir = octant.Dir
)

// MaxLevel is the deepest refinement level supported.
const MaxLevel = octant.MaxLevel

// Octant constructors and relations.
var (
	// NewOctant returns the octant at level l with corner (x, y, z).
	NewOctant = octant.New
	// RootOctant returns the root octant of a dim-dimensional tree.
	RootOctant = octant.Root
	// CompareOctants orders octants along the space-filling curve
	// (ancestors first).
	CompareOctants = octant.Compare
)

// Linear octree algorithms (Section II-A and III-B).
var (
	// SortOctants sorts a slice into space-filling-curve order.
	SortOctants = linear.Sort
	// Linearize removes overlaps from a sorted slice, keeping leaves.
	Linearize = linear.Linearize
	// Complete fills the gaps of a sorted linear slice with the coarsest
	// octants so that the result tiles root.
	Complete = linear.Complete
	// Reduce removes preclusion-redundant octants (Figure 8).
	Reduce = linear.Reduce
)

// Subtree balance algorithms (Section III) and remote-balance primitives
// (Section IV).
var (
	// BalanceSubtreeOld is the old subtree balance algorithm (Figure 6).
	BalanceSubtreeOld = balance.SubtreeOld
	// BalanceSubtreeNew is the new subtree balance algorithm (Figure 7).
	BalanceSubtreeNew = balance.SubtreeNew
	// CheckBalanced verifies the k-balance condition on a subtree.
	CheckBalanced = balance.Check
	// Tk computes the coarsest k-balanced octree containing an octant.
	Tk = balance.Tk
	// Seeds computes the seed octants of a remote octant's influence on a
	// region (Section IV, Figure 9).
	Seeds = balance.Seeds
	// TkOverlap reconstructs Tk(o) ∩ r from seeds.
	TkOverlap = balance.TkOverlap
	// Carry3 is the three-way carry of equation (1).
	Carry3 = balance.Carry3
	// Lambda is the Table II distance-to-size function.
	Lambda = balance.Lambda
)

// Message-passing runtime (MPI substitute).
type (
	// World is a group of communicating ranks backed by goroutines.
	World = comm.World
	// Comm is one rank's endpoint.
	Comm = comm.Comm
	// CommStats counts messages and bytes.
	CommStats = comm.Stats
)

// NewWorld creates a world of p ranks.
var NewWorld = comm.NewWorld

// Observability (internal/obs): rank-aware tracing, phase aggregation,
// Chrome trace-event export and the BENCH record schema.
type (
	// Tracer records spans, instants and counters per rank; attach one to
	// a World (SetTracer) or an Experiment (Tracer field) and export the
	// timeline with WriteTrace.  A nil *Tracer is a valid disabled tracer.
	Tracer = obs.Tracer
	// Span is an open tracer span.
	Span = obs.Span
	// PhaseSummary is a cross-rank min/mean/max/imbalance aggregate.
	PhaseSummary = obs.Summary
	// BenchRecord is the machine-readable benchmark record of cmd/bench.
	BenchRecord = obs.BenchRecord
	// BenchRun is one balance execution inside a BenchRecord.
	BenchRun = obs.BenchRun
)

var (
	// NewTracer creates a tracer with one track per rank.
	NewTracer = obs.NewTracer
	// SummarizeValues reduces one value per rank to a PhaseSummary.
	SummarizeValues = obs.Summarize
	// AggregateValue gathers one value from every rank and summarizes it
	// on every rank (collective).
	AggregateValue = obs.Aggregate
	// AllreducePhaseTimes reduces PhaseTimes to the elementwise maximum
	// over all ranks (collective).
	AllreducePhaseTimes = forest.AllreducePhaseTimes
)

// Pattern reversal schemes (Section V).
var (
	// NotifyNaive reverses a communication pattern with Allgatherv.
	NotifyNaive = notify.Naive
	// NotifyRanges reverses it with bounded rank ranges (superset result).
	NotifyRanges = notify.Ranges
	// Notify is the divide-and-conquer reversal of Figure 13.
	Notify = notify.Notify
	// NotifyNaiveCodec, NotifyRangesCodec and NotifyCodec take an explicit
	// wire codec for their payloads.
	NotifyNaiveCodec  = notify.NaiveCodec
	NotifyRangesCodec = notify.RangesCodec
	NotifyCodec       = notify.NotifyCodec
)

// WireCodec selects the payload encoding of the comm stack (see
// forest.WireCodec / comm.WireCodec).
type WireCodec = forest.WireCodec

// Wire codec versions.
const (
	// WireV0 is the fixed-width 16-byte-per-octant legacy format (default).
	WireV0 = forest.WireV0
	// WireV1 is the compact delta-Morton varint format.
	WireV1 = forest.WireV1
)

var (
	// ParseWireCodec parses a -codec flag value ("v0"/"v1").
	ParseWireCodec = comm.ParseWireCodec
	// SetCommPooling toggles the comm layer's payload buffer pool and
	// returns the previous setting (A/B lever for allocation measurements).
	SetCommPooling = comm.SetPooling
)

// Forest of octrees.
type (
	// Connectivity lays trees out in a (masked, optionally periodic)
	// brick grid.
	Connectivity = forest.Connectivity
	// Forest is one rank's view of the distributed forest.
	Forest = forest.Forest
	// TreeChunk is the local leaf storage of one tree.
	TreeChunk = forest.TreeChunk
	// BalanceOptions selects algorithm variants for Balance.
	BalanceOptions = forest.BalanceOptions
	// PhaseTimes holds the per-phase durations of one balance run.
	PhaseTimes = forest.PhaseTimes
	// Algo selects the old or new one-pass balance.
	Algo = forest.Algo
	// NotifyScheme selects the pattern reversal variant.
	NotifyScheme = forest.NotifyScheme
)

// Balance algorithm variants.
const (
	AlgoOld = forest.AlgoOld
	AlgoNew = forest.AlgoNew

	SchemeNaive  = forest.NotifyNaive
	SchemeRanges = forest.NotifyRanges
	SchemeNotify = forest.NotifyDC
)

// Forest constructors and the serial reference.
var (
	// NewBrick creates a brick connectivity.
	NewBrick = forest.NewBrick
	// NewMaskedBrick creates a brick connectivity with deactivated cells.
	NewMaskedBrick = forest.NewMaskedBrick
	// NewUniformForest creates a uniformly refined, equally partitioned
	// forest (collective).
	NewUniformForest = forest.NewUniform
	// RefBalance is the serial reference balance used for validation.
	RefBalance = forest.RefBalance
	// CheckForest verifies global (cross-tree) balance.
	CheckForest = forest.CheckForest
)

// Evaluation workloads (Section VI).
type IceSheet = workload.IceSheet

var (
	// FractalRefine is the Figure 15 refinement rule.
	FractalRefine = workload.Fractal
	// FractalForest is the six-tree forest of Figure 14.
	FractalForest = workload.FractalForest
	// NewIceSheet builds the synthetic Antarctica-like domain of the
	// strong-scaling study (Figures 16 and 17).
	NewIceSheet = workload.NewIceSheet
	// RandomRefine is a position-hashed random refinement rule.
	RandomRefine = workload.Random
)

// Ghost layers, node numbering, checksums and visualization.
type (
	// GhostLayer is one layer of remote leaves around a partition.
	GhostLayer = forest.GhostLayer
	// GhostOctant is a remote leaf with its tree and owner.
	GhostOctant = forest.GhostOctant
	// Nodes is a global corner-node numbering with hanging nodes.
	Nodes = mesh.Nodes
	// Hanging describes one hanging node's dependencies.
	Hanging = mesh.Hanging
	// NodeID is a global node number.
	NodeID = mesh.NodeID
	// CellData is a per-leaf attribute for VTK export.
	CellData = vtk.CellData
)

var (
	// BuildNodes numbers the corner nodes of a balanced global forest.
	BuildNodes = mesh.BuildNodes
	// WriteVTK writes a gathered forest as a legacy VTK unstructured grid.
	WriteVTK = vtk.Write
	// ChecksumGlobal digests a gathered forest (partition invariant).
	ChecksumGlobal = forest.ChecksumGlobal
)

// StageOverride pins one stage of the one-pass balance for ablations.
type StageOverride = forest.StageOverride

// Stage override values (see DESIGN.md §5, ablation benches).
const (
	StageDefault = forest.StageDefault
	StageOld     = forest.StageOld
	StageNew     = forest.StageNew
)

// Distributed node numbering and forest serialization.
type (
	// DistNodes is one rank's portion of a parallel node numbering.
	DistNodes = mesh.DistNodes
	// DistHanging is a hanging node with global dependency ids.
	DistHanging = mesh.DistHanging
)

var (
	// BuildNodesDistributed numbers corner nodes in parallel (lnodes).
	BuildNodesDistributed = mesh.BuildNodesDistributed
	// SaveForest serializes a gathered global forest (p4est_save analogue).
	SaveForest = forest.SaveGlobal
	// SaveForestCodec serializes with an explicit leaf encoding (WireV1
	// writes the compact version-2 format).
	SaveForestCodec = forest.SaveGlobalCodec
	// LoadForest restores a forest written by SaveForest or SaveForestCodec.
	LoadForest = forest.LoadGlobal
)
