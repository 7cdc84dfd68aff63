package table

import (
	"strings"
	"testing"
)

func sample() *Table {
	tb := New("demo", "p", "MTCD", "MTSD")
	tb.MustAddRow("0.1", "81.2", "80")
	tb.MustAddRow("1.0", "98", "80")
	return tb
}

func TestAddRowArity(t *testing.T) {
	tb := New("x", "a", "b")
	if err := tb.AddRow("1"); err == nil {
		t.Fatal("short row accepted")
	}
	if err := tb.AddRow("1", "2", "3"); err == nil {
		t.Fatal("long row accepted")
	}
	if err := tb.AddRow("1", "2"); err != nil {
		t.Fatal(err)
	}
}

func TestMustAddRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddRow did not panic")
		}
	}()
	New("x", "a").MustAddRow("1", "2")
}

func TestASCIIOutput(t *testing.T) {
	out := sample().String()
	if !strings.Contains(out, "# demo") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, header, rule, 2 rows
	if len(lines) != 5 {
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "p ") {
		t.Fatalf("header misaligned: %q", lines[1])
	}
	if !strings.Contains(lines[3], "81.2") {
		t.Fatalf("row content missing: %q", lines[3])
	}
}

func TestASCIIEmptyColumns(t *testing.T) {
	var b strings.Builder
	if err := (&Table{}).WriteASCII(&b); err == nil {
		t.Fatal("empty table rendered")
	}
}

func TestCSVOutput(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "p,MTCD,MTSD\n") {
		t.Fatalf("csv header missing:\n%s", out)
	}
	if !strings.Contains(out, "1.0,98,80\n") {
		t.Fatalf("csv row missing:\n%s", out)
	}
}

func TestTSVOutput(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0.1\t81.2\t80\n") {
		t.Fatalf("tsv row missing:\n%s", b.String())
	}
}

func TestMarkdownOutput(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "**demo**") {
		t.Fatalf("caption missing:\n%s", out)
	}
	if !strings.Contains(out, "| p | MTCD | MTSD |") {
		t.Fatalf("header missing:\n%s", out)
	}
	if !strings.Contains(out, "|---|---|---|") {
		t.Fatalf("rule missing:\n%s", out)
	}
	if !strings.Contains(out, "| 1.0 | 98 | 80 |") {
		t.Fatalf("row missing:\n%s", out)
	}
	// Pipes in cells must be escaped.
	tb := New("", "a")
	tb.MustAddRow("x|y")
	b.Reset()
	if err := tb.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x\|y`) {
		t.Fatalf("pipe not escaped:\n%s", b.String())
	}
	if err := (&Table{}).WriteMarkdown(&b); err == nil {
		t.Fatal("empty table rendered")
	}
}

func TestWriteDispatch(t *testing.T) {
	var b strings.Builder
	for _, f := range []string{"", "ascii", "csv", "tsv", "markdown", "md"} {
		b.Reset()
		if err := sample().Write(&b, f); err != nil {
			t.Fatalf("format %q: %v", f, err)
		}
		if b.Len() == 0 {
			t.Fatalf("format %q produced nothing", f)
		}
	}
	if err := sample().Write(&b, "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestFmt(t *testing.T) {
	if Fmt(80.0) != "80" {
		t.Fatalf("Fmt(80) = %q", Fmt(80.0))
	}
	if Fmt(73.94738) != "73.95" {
		t.Fatalf("Fmt = %q", Fmt(73.94738))
	}
}
