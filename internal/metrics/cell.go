package metrics

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// Kind classifies a typed table cell. The kind fixes both which value field
// of the Cell is meaningful and how the cell renders as ASCII; units are
// metadata carried alongside for machine consumers (JSON, CSV headers,
// dashboards) and are never printed into the ASCII form — with two
// deliberate exceptions, KindPercent ("%") and KindRatio ("x"), whose
// suffixes are part of the established table vocabulary.
type Kind uint8

const (
	// KindString is an opaque pre-formatted cell (labels, composite text).
	KindString Kind = iota
	// KindInt is an integer quantity (cycles, counts, nodes).
	KindInt
	// KindFloat is a fixed-precision decimal quantity.
	KindFloat
	// KindPercent is a fraction rendered as a percentage ("4.2%"); the
	// stored value is the fraction (0.042), not the percentage.
	KindPercent
	// KindRatio is a dimensionless multiplier rendered with an "x" suffix
	// ("1.62x").
	KindRatio
	// KindDuration is a host-time duration stored in nanoseconds, rendered
	// as time.Duration.String ("12.3ms"). It is the one kind whose value is
	// not a function of the simulation's inputs.
	KindDuration
	// KindDB is a decibel quantity (optical loss budgets).
	KindDB
	// KindBool renders "true"/"false"; the stored Int is 0 or 1.
	KindBool
)

// kindNames maps kinds to their stable JSON names. The names are part of
// the versioned table format: renaming one is a format change.
var kindNames = [...]string{
	KindString:   "string",
	KindInt:      "int",
	KindFloat:    "float",
	KindPercent:  "percent",
	KindRatio:    "ratio",
	KindDuration: "duration",
	KindDB:       "dB",
	KindBool:     "bool",
}

// String returns the kind's stable name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind by its stable name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("metrics: unknown cell kind %d", int(k))
	}
	return json.Marshal(kindNames[k])
}

// UnmarshalJSON decodes a kind from its stable name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == name {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("metrics: unknown cell kind %q", name)
}

// Cell is one typed table cell: a value, its unit, and the precision it
// renders with. Experiments build cells with the constructors below so each
// table keeps exact control of its printed form while machine consumers
// (the JSON renderer, programmatic readers) get the underlying value.
type Cell struct {
	// Kind selects the value field and the ASCII form.
	Kind Kind `json:"kind"`
	// Str holds KindString values.
	Str string `json:"str,omitempty"`
	// Int holds KindInt values, KindBool (0/1), and KindDuration
	// (nanoseconds).
	Int int64 `json:"int,omitempty"`
	// Float holds KindFloat, KindPercent (as a fraction), KindRatio and
	// KindDB values.
	Float float64 `json:"float,omitempty"`
	// Unit is the quantity's unit ("cycles", "mW", "ms", "dB", …); metadata
	// only, never rendered into the ASCII form.
	Unit string `json:"unit,omitempty"`
	// Prec is the number of fractional digits in the ASCII form.
	Prec int `json:"prec,omitempty"`
}

// String makes an opaque text cell.
func String(s string) Cell { return Cell{Kind: KindString, Str: s} }

// Stringf makes a text cell from a format string.
func Stringf(format string, args ...interface{}) Cell {
	return String(fmt.Sprintf(format, args...))
}

// Int makes an integer cell with a unit.
func Int(v int64, unit string) Cell { return Cell{Kind: KindInt, Int: v, Unit: unit} }

// Float makes a fixed-precision decimal cell with a unit.
func Float(v float64, prec int, unit string) Cell {
	return Cell{Kind: KindFloat, Float: v, Prec: prec, Unit: unit}
}

// Percent makes a percentage cell from a fraction; it renders with one
// fractional digit ("4.2%"), the house style of every accuracy table.
func Percent(frac float64) Cell {
	return Cell{Kind: KindPercent, Float: frac, Prec: 1, Unit: "%"}
}

// Ratio makes a multiplier cell rendered with an "x" suffix ("1.62x").
func Ratio(v float64, prec int) Cell {
	return Cell{Kind: KindRatio, Float: v, Prec: prec, Unit: "x"}
}

// DurationText makes a host-time cell rendered as time.Duration.String
// ("12.3ms"); the stored value is still nanoseconds.
func DurationText(d time.Duration) Cell {
	return Cell{Kind: KindDuration, Int: int64(d), Prec: -1, Unit: "ns"}
}

// DB makes a decibel cell.
func DB(v float64, prec int) Cell {
	return Cell{Kind: KindDB, Float: v, Prec: prec, Unit: "dB"}
}

// Bool makes a boolean cell.
func Bool(v bool) Cell {
	c := Cell{Kind: KindBool}
	if v {
		c.Int = 1
	}
	return c
}

// Render returns the cell's ASCII form. The rules reproduce the printf
// vocabulary the experiments used before cells were typed, so tables render
// byte-identically: "%d" for ints, "%.<prec>f" for decimals, "%.1f%%" of
// the fraction for percentages, "%.<prec>fx" for ratios, time.Duration.String
// for durations, "true"/"false" for booleans.
func (c Cell) Render() string {
	switch c.Kind {
	case KindString:
		return c.Str
	case KindInt:
		return strconv.FormatInt(c.Int, 10)
	case KindFloat, KindDB:
		return strconv.FormatFloat(c.Float, 'f', c.Prec, 64)
	case KindPercent:
		return strconv.FormatFloat(c.Float*100, 'f', c.Prec, 64) + "%"
	case KindRatio:
		return strconv.FormatFloat(c.Float, 'f', c.Prec, 64) + "x"
	case KindDuration:
		return time.Duration(c.Int).String()
	case KindBool:
		if c.Int != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("?kind(%d)", int(c.Kind))
	}
}

// Value returns the cell's numeric value and true, or 0 and false for cells
// without one (strings). Percentages return the fraction, durations
// nanoseconds, booleans 0 or 1.
func (c Cell) Value() (float64, bool) {
	switch c.Kind {
	case KindString:
		return 0, false
	case KindInt, KindBool, KindDuration:
		return float64(c.Int), true
	default:
		return c.Float, true
	}
}
