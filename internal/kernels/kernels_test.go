package kernels

import (
	"testing"

	"repro/internal/balance"
	"repro/internal/octant"
)

// TestCannedInputs checks the canned fractal chunk and derived benchmark
// inputs satisfy the assumptions documented in Verify.
func TestCannedInputs(t *testing.T) {
	if err := Verify(); err != nil {
		t.Fatal(err)
	}
	t.Logf("canned chunk: %d leaves, %d carry triples, %d seed pairs",
		len(canned()), len(carryTriples()), len(seedPairs()))
}

// TestKernelsRun executes every kernel through testing.Benchmark, the same
// path cmd/bench uses, and checks the measurements are sane.
func TestKernelsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel measurement loop in -short mode")
	}
	for _, k := range List() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			r := testing.Benchmark(k.Fn)
			if r.N < 1 {
				t.Fatalf("%s: ran %d iterations", k.Name, r.N)
			}
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if v, ok := r.Extra["ns/op"]; ok {
				ns = v
			}
			if ns <= 0 {
				t.Fatalf("%s: non-positive ns/op %v", k.Name, ns)
			}
		})
	}
}

// BenchmarkKernels exposes the kernel list to `go test -bench`.
func BenchmarkKernels(b *testing.B) {
	for _, k := range List() {
		b.Run(k.Name, k.Fn)
	}
}

// TestSubtreeNewKeysAllocsBounded bounds the allocations of the packed-key
// subtree balance on the canned chunk: seven fixed ones (reduced input and
// its flags, the two arrays of the key set, worklist, merged set,
// completion) plus two per doubling of the key set, whatever the number of
// octants.  The hash maps this replaced allocated 22 times on this input.
func TestSubtreeNewKeysAllocsBounded(t *testing.T) {
	keys := cannedKeys()
	root := octant.KeyOf(octant.Root(cannedDim))
	allocs := testing.AllocsPerRun(10, func() { balance.SubtreeNewKeys(root, keys, cannedK) })
	if allocs > 11 {
		t.Fatalf("SubtreeNewKeys on the canned chunk: %v allocations, want at most 11", allocs)
	}
}
