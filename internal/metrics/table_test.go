package metrics

import (
	"strings"
	"testing"
)

func TestTableASCIIAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-name", "2")
	tb.Note("a footnote %d", 7)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + rule + header + separator + 2 rows + note = 7 lines
	if len(lines) != 7 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(lines[2], "name") || !strings.Contains(lines[2], "|") {
		t.Fatalf("bad header:\n%s", out)
	}
	if !strings.Contains(lines[6], "note: a footnote 7") {
		t.Fatalf("missing note:\n%s", out)
	}
	// Pipe positions align between header and rows.
	if strings.Index(lines[2], "|") != strings.Index(lines[4], "|") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableShortRowsPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only-one")
	if tb.NumRows() != 1 {
		t.Fatal("row not added")
	}
	if tb.Cell(0, 2) != "" {
		t.Fatal("short row not padded")
	}
}

func TestTableLongRowPanics(t *testing.T) {
	tb := NewTable("", "a")
	defer func() {
		if recover() == nil {
			t.Error("oversized row did not panic")
		}
	}()
	tb.AddRow("1", "2")
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "k", "v")
	tb.AddRow("plain", `has "quotes", and commas`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "k,v\nplain,\"has \"\"quotes\"\", and commas\"\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("R1 — demo", "kernel", "err")
	tb.AddCells(String("fft"), Percent(0.018))
	tb.AddCells(String("has|pipe"), Percent(0.5))
	tb.Note("a note")
	var b strings.Builder
	if err := tb.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	want := "### R1 — demo\n\n| kernel | err |\n| --- | --- |\n| fft | 1.8% |\n| has\\|pipe | 50.0% |\n\n*note: a note*\n"
	if b.String() != want {
		t.Fatalf("markdown = %q, want %q", b.String(), want)
	}
}
