package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestCellRender pins the ASCII vocabulary of every cell kind: it must
// reproduce exactly the printf forms the experiments used before cells were
// typed, since the golden ASCII tables depend on it.
func TestCellRender(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{String("fft"), "fft"},
		{Stringf("t=%d", 4), "t=4"},
		{Int(4500, "cycles"), "4500"},
		{Int(-3, ""), "-3"},
		{Float(1.23456, 3, ""), "1.235"},
		{Float(12.0, 1, "mW"), "12.0"},
		{Float(0.5, 0, "mW"), "0"}, // strconv rounds half to even, like %f
		{Percent(0.0183), "1.8%"},
		{Percent(0), "0.0%"},
		{Percent(1.25), "125.0%"},
		{Ratio(1.6249, 2), "1.62x"},
		{Ratio(2, 1), "2.0x"},
		{DurationText(1500 * time.Millisecond), "1.5s"},
		{DurationText(0), "0s"},
		{DB(3.14159, 2), "3.14"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.cell.Render(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.cell, got, c.want)
		}
	}
}

func TestCellValue(t *testing.T) {
	if _, ok := String("x").Value(); ok {
		t.Error("string cell reported a numeric value")
	}
	if v, ok := Percent(0.042).Value(); !ok || v != 0.042 {
		t.Errorf("percent value = %v, %v; want the fraction", v, ok)
	}
	if v, ok := DurationText(time.Millisecond).Value(); !ok || v != 1e6 {
		t.Errorf("duration value = %v, %v; want nanoseconds", v, ok)
	}
	if v, ok := Bool(true).Value(); !ok || v != 1 {
		t.Errorf("bool value = %v, %v; want 1", v, ok)
	}
}

// TestTableJSONRoundTrip checks the versioned table codec: a decoded table
// renders byte-identically and keeps its typed values, units and notes.
func TestTableJSONRoundTrip(t *testing.T) {
	tb := NewTable("demo", "kernel", "makespan", "err", "speedup", "wall", "ok")
	tb.AddCells(String("fft"), Int(4500, "cycles"), Percent(0.018),
		Ratio(1.62, 2), DurationText(12345*time.Microsecond), Bool(true))
	tb.Note("a note with %d parts", 2)
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var got Table
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != tb.String() {
		t.Fatalf("round-trip render drifted:\n--- want ---\n%s--- got ---\n%s", tb.String(), got.String())
	}
	if c := got.At(0, 1); c.Kind != KindInt || c.Int != 4500 || c.Unit != "cycles" {
		t.Fatalf("decoded cell lost type/value/unit: %+v", c)
	}
	if v, ok := got.At(0, 2).Value(); !ok || v != 0.018 {
		t.Fatalf("decoded percent lost its fraction: %+v", got.At(0, 2))
	}
	if n := got.Notes(); len(n) != 1 || n[0] != "a note with 2 parts" {
		t.Fatalf("notes did not survive: %v", n)
	}
}

func TestTableJSONRejectsBadDocuments(t *testing.T) {
	var tb Table
	if err := json.Unmarshal([]byte(`{"version":99,"title":"x","columns":["a"],"rows":[]}`), &tb); err == nil {
		t.Error("wrong format version accepted")
	}
	if err := json.Unmarshal([]byte(`{"version":1,"title":"x","columns":["a","b"],"rows":[[{"kind":"string"}]]}`), &tb); err == nil {
		t.Error("row/column count mismatch accepted")
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"flux"`), &k); err == nil {
		t.Error("unknown kind name accepted")
	}
}

func TestTableLongRowPanicNamesTable(t *testing.T) {
	tb := NewTable("R99 — demo", "a")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oversized row did not panic")
		}
		if !strings.Contains(r.(string), "R99 — demo") {
			t.Fatalf("panic message does not name the table: %v", r)
		}
	}()
	tb.AddCells(String("1"), String("2"))
}
