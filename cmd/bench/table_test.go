package main

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 3.14159)
	tbl.AddRow("b", 250*time.Millisecond)
	tbl.AddRow("gamma-long-name", 7)
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "3.142") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	if !strings.Contains(out, "0.25") {
		t.Fatalf("duration not rendered in seconds:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Columns align: each row at least as wide as the widest cell.
	if !strings.Contains(lines[5], "gamma-long-name") {
		t.Fatalf("row ordering broken:\n%s", out)
	}
}
