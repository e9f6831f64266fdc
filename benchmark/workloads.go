package main

import (
	"fmt"
	"math"

	"repro/internal/forest"
	"repro/internal/octant"
	"repro/internal/workload"
)

// A workload is one fixed input class for Forest.Balance.  The refinement
// callbacks that shape each input live here; the program under test only
// ever sees the forests they generate.

type refineFunc = func(tree int32, o octant.Octant) bool
type coarsenFunc = func(tree int32, family []octant.Octant) bool

// workloadDef describes one workload: how many ranks, which transport, and
// its input.  The input comes in a fixed number of variants, exact isometric
// images of one another: the same work in another Morton order, tree
// numbering and partition.  Variant 0 is the canonical input whose outputs
// golden.json pins.
type workloadDef struct {
	name   string
	why    string
	ranks  int
	socket bool // world split over two netcomm transports joined by a unix socket
	// exactCounts marks inputs whose variants must all produce the golden
	// octant counts, not only variant 0.
	exactCounts bool
	variants    int
	input       func(variant int, quick bool) *input
}

// input is one generated input: the connectivity, the uniform start level,
// the adaptation rules and the balance condition.  steps == 0 is a single
// from-scratch Balance of the refined forest; steps > 0 is an AMR loop of
// that many Refine → Coarsen → Partition → Balance → BuildGhost → Checksum
// steps starting from the adapted, balanced mesh of step 0.
type input struct {
	conn      *forest.Connectivity
	baseLevel int
	maxLevel  int
	k         int
	steps     int
	refine    func(step int) refineFunc
	coarsen   func(step int) coarsenFunc
}

var workloads = []workloadDef{
	{
		name:        "fractal3d_p1",
		why:         "single-rank baseline: key kernels and forest self-query do all the work, comm/notify/wire/netcomm none",
		ranks:       1,
		exactCounts: true,
		variants:    12,
		input:       fractalInput,
	},
	{
		name:        "icesheet2d_p8",
		why:         "graded multi-tree mesh on 8 in-process ranks: notify, query/response exchange, wire codec and remote rebalance run here",
		ranks:       8,
		exactCounts: true,
		variants:    8,
		input:       iceSheetInput,
	},
	{
		name:        "icesheet2d_p8_sock",
		why:         "same mesh over two netcomm transports and a unix socket: the difference to icesheet2d_p8 is the reliable-layer and framing cost",
		ranks:       8,
		socket:      true,
		exactCounts: true,
		variants:    8,
		input:       iceSheetInput,
	},
	{
		name:     "amrcycle3d_p2",
		why:      "8-step moving-front AMR loop on 2 ranks: incremental rebalance of an almost balanced mesh beside Partition and BuildGhost",
		ranks:    2,
		variants: 8,
		input:    amrCycleInput,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workloadDef{}, false
}

// firstVariant maps a seed onto the variant a run starts with; seed 0 starts
// with the canonical input.
func (wl workloadDef) firstVariant(seed int64) int {
	n := int64(wl.variants)
	return int((seed%n + n) % n)
}

// fractalInput is the paper's weak-scaling mesh (Figure 15): a 3×2×1 brick
// uniformly refined to level 2, then octants with child ids {0,3,5,6} split
// recursively to level 7, balanced with the full corner condition.  The
// variants reflect the rule (child ids XOR 1 gives the mirror set {1,2,4,7};
// the other reflections map each set onto itself) and permute the brick's
// axes: twelve exactly isometric meshes in different Morton order.
func fractalInput(v int, quick bool) *input {
	mask := v & 1
	dims := [6][3]int{{3, 2, 1}, {2, 3, 1}, {3, 1, 2}, {1, 3, 2}, {2, 1, 3}, {1, 2, 3}}[v>>1]
	base, maxLevel := 2, 7
	if quick {
		base, maxLevel = 1, 4
	}
	return &input{
		conn:      forest.NewBrick(3, dims[0], dims[1], dims[2], [3]bool{}),
		baseLevel: base,
		maxLevel:  maxLevel,
		k:         3,
		refine: func(int) refineFunc {
			return func(_ int32, o octant.Octant) bool {
				switch o.ChildID() ^ mask {
				case 0, 3, 5, 6:
					return true
				}
				return false
			}
		},
	}
}

// iceSheetInput is the paper's strong-scaling stand-in (Figures 16, 17):
// workload.NewIceSheet's masked 16×16 brick refined from level 2 to level
// 12 along the grounding line, corner-balanced.  Variant v applies one of
// the eight symmetries of the square to the whole domain — mask and
// grounding line together — so every variant is an exact isometric image
// of the canonical mesh with a different tree numbering and partition.
func iceSheetInput(v int, quick bool) *input {
	gridN, maxLevel := 16, 12
	if quick {
		gridN, maxLevel = 8, 6
	}
	is := workload.NewIceSheet(2, gridN, maxLevel)
	// canon maps a cell of the variant grid to the canonical grid.
	canon := func(x, y int) (int, int) {
		if v&4 != 0 {
			x, y = y, x
		}
		if v&1 != 0 {
			x = gridN - 1 - x
		}
		if v&2 != 0 {
			y = gridN - 1 - y
		}
		return x, y
	}
	// canonOct maps an octant of a variant tree into its canonical tree.
	canonOct := func(o octant.Octant) octant.Octant {
		if v&4 != 0 {
			o.X, o.Y = o.Y, o.X
		}
		if v&1 != 0 {
			o.X = octant.RootLen - o.X - o.Len()
		}
		if v&2 != 0 {
			o.Y = octant.RootLen - o.Y - o.Len()
		}
		return o
	}
	canonTree := make([]int32, gridN*gridN) // canonical cell -> canonical tree, -1 if masked out
	for i := range canonTree {
		canonTree[i] = -1
	}
	for t := int32(0); t < is.Conn.NumTrees(); t++ {
		x, y, _ := is.Conn.TreeCell(t)
		canonTree[y*gridN+x] = t
	}
	treeOf := func(x, y int) int32 {
		cx, cy := canon(x, y)
		return canonTree[cy*gridN+cx]
	}
	conn := forest.NewMaskedBrick(2, gridN, gridN, 1, [3]bool{}, func(x, y, _ int) bool {
		return treeOf(x, y) >= 0
	})
	return &input{
		conn:      conn,
		baseLevel: 2,
		maxLevel:  maxLevel,
		k:         2,
		refine: func(int) refineFunc {
			return func(tree int32, o octant.Octant) bool {
				x, y, _ := conn.TreeCell(tree)
				return is.Refine(treeOf(x, y), canonOct(o))
			}
		},
	}
}

// amrCycleInput is the dynamic-adaptation loop the paper's introduction
// motivates: a spherical front expands through a 3×3×1 brick; each step
// refines to level 6 in a band around the front, coarsens behind it,
// repartitions and rebalances (peak ≈116 k octants).  Set-up builds the
// adapted, balanced mesh of step 0, so all eight timed Balance calls see an
// almost balanced mesh.  Variant v moves the front's centre to one of its
// eight images under the symmetries of the brick's square cross-section;
// Coarsen skips families that straddle a rank boundary, so the variants'
// octant counts agree only to a few hundred in 760 k.
func amrCycleInput(v int, quick bool) *input {
	const gridN = 3
	conn := forest.NewBrick(3, gridN, gridN, 1, [3]bool{})
	// Dyadic coordinates, so the mirrored centres and all distances to them
	// are exact and every variant refines the exact mirror image.
	cx, cy, cz := 0.90625, 1.1875, 0.40625
	if v&4 != 0 {
		cx, cy = cy, cx
	}
	if v&1 != 0 {
		cx = gridN - cx
	}
	if v&2 != 0 {
		cy = gridN - cy
	}
	steps, maxLevel := 8, 6
	if quick {
		steps, maxLevel = 2, 4
	}
	// near reports whether the octant's cell lies in the band around the
	// front of the given step.
	near := func(tree int32, o octant.Octant, step int) bool {
		tx, ty, tz := conn.TreeCell(tree)
		root := float64(octant.RootLen)
		h := float64(o.Len()) / root
		x := float64(tx) + float64(o.X)/root + h/2
		y := float64(ty) + float64(o.Y)/root + h/2
		z := float64(tz) + float64(o.Z)/root + h/2
		r := math.Sqrt((x-cx)*(x-cx) + (y-cy)*(y-cy) + (z-cz)*(z-cz))
		return math.Abs(r-(0.35+0.20*float64(step))) < h
	}
	const baseLevel = 2
	return &input{
		conn:      conn,
		baseLevel: baseLevel,
		maxLevel:  maxLevel,
		k:         3,
		steps:     steps,
		refine: func(step int) refineFunc {
			return func(tree int32, o octant.Octant) bool { return near(tree, o, step) }
		},
		coarsen: func(step int) coarsenFunc {
			return func(tree int32, family []octant.Octant) bool {
				for _, o := range family {
					if o.Level <= baseLevel || near(tree, o, step) {
						return false
					}
				}
				return true
			}
		},
	}
}

func (in *input) String() string {
	return fmt.Sprintf("%v, level %d→%d, k=%d, steps=%d", in.conn, in.baseLevel, in.maxLevel, in.k, in.steps)
}
