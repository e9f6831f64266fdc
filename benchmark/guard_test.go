package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The benchmark must outlive the clean-up ROADMAP item 3 plans: it may not
// depend on the packages that are to be folded away, nor name the options,
// batch kernels and struct-twin functions that are to be deleted, so that
// those deletions never need an edit here.
func TestBenchmarkAvoidsCodeSlatedForDeletion(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		switch dep {
		case "repro/internal/kernels", "repro/internal/stats", "repro/internal/harness":
			t.Errorf("the benchmark depends on %s", dep)
		}
	}

	forbidden := regexp.MustCompile(`\bWorkers\b|StructLocal|CompareKeys4|KeyNeighbors|` +
		`\btraverse\.(Search|SearchBoundary|SplitTasks)\(|` +
		`\bbalance\.(SubtreeNew|SubtreeOld|Subtree)\(|` +
		`\blinear\.(Sort|IsSorted|IsLinear|Linearize|LowerBound|Contains|OverlapRange|DescendantRange|Complete|Reduce|PrecludingMember|Union)\(|` +
		`\bforest\.(EncodeOctantList|DecodeOctantList|BalanceChunks)\(`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := forbidden.FindString(line); m != "" {
				t.Errorf("%s:%d names %q", file, i+1, m)
			}
		}
	}
}
