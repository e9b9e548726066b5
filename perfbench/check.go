package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"proteus/internal/exec"
	"proteus/internal/types"
)

// maxULP is the float tolerance of the output check. Parallel, vectorized
// and distributed plans add partial sums in a different order than the
// serial reference, so a SUM or AVG over n values may differ in its last
// bits; 2^20 ULPs is a relative error of about 2.3e-10, far above any
// reassociation seen over a million values and far below any real defect.
const maxULP = 1 << 20

// cell is one result value in a form both the engine and the NDJSON wire
// reduce to. Kind is 'n' null, 'b' bool, 'i' int, 'f' float, 's' string.
type cell struct {
	kind byte
	i    int64
	f    float64
	s    string
}

// table is a canonical result: column names per row position and the rows.
type table struct {
	cols []string
	rows [][]cell
}

// tableOf reduces an engine result to a table. Record rows contribute
// their field names; scalar rows are one column named after Cols.
func tableOf(res *exec.Result) *table {
	t := &table{rows: make([][]cell, 0, len(res.Rows))}
	for _, v := range res.Rows {
		if v.Kind == types.KindRecord && v.Rec != nil {
			if t.cols == nil {
				t.cols = v.Rec.Names
			}
			row := make([]cell, len(v.Rec.Values))
			for i, x := range v.Rec.Values {
				row[i] = cellOf(x)
			}
			t.rows = append(t.rows, row)
			continue
		}
		if t.cols == nil && len(res.Cols) > 0 {
			t.cols = res.Cols[:1]
		}
		t.rows = append(t.rows, []cell{cellOf(v)})
	}
	return t
}

func cellOf(v types.Value) cell {
	switch v.Kind {
	case types.KindNull:
		return cell{kind: 'n'}
	case types.KindBool:
		return cell{kind: 'b', i: v.I}
	case types.KindInt:
		return cell{kind: 'i', i: v.I}
	case types.KindFloat:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return cell{kind: 'n'} // the wire carries non-finite floats as null
		}
		return cell{kind: 'f', f: v.F}
	case types.KindString:
		return cell{kind: 's', s: v.S}
	}
	return cell{kind: 's', s: v.String()} // nested values compare by rendering
}

// readNDJSON decodes a /v1/query response body: a head line with "cols",
// one object per row, and a trailer with "rows". A missing or inconsistent
// trailer is an error, as it is for the service's own clients.
func readNDJSON(body io.Reader) (*table, error) {
	br := bufio.NewReaderSize(body, 64<<10)
	t := &table{}
	headSeen := false
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) == 0 {
			if err == io.EOF {
				return nil, fmt.Errorf("ndjson: stream ended without a trailer")
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		cols, row, err := decodeObject(line)
		if err != nil {
			return nil, err
		}
		switch {
		case !headSeen:
			headSeen = true
			if len(cols) == 0 || cols[0] != "cols" {
				return nil, fmt.Errorf("ndjson: head line %q has no cols", bytes.TrimSpace(line))
			}
		case len(cols) > 0 && (cols[0] == "rows" || cols[0] == "error"):
			if cols[0] == "error" {
				return nil, fmt.Errorf("ndjson: in-band error %s", bytes.TrimSpace(line))
			}
			if row[0].kind != 'i' || row[0].i != int64(len(t.rows)) {
				return nil, fmt.Errorf("ndjson: trailer counts %v rows, stream had %d", row[0], len(t.rows))
			}
			return t, nil
		default:
			if t.cols == nil {
				t.cols = cols
			}
			t.rows = append(t.rows, row)
		}
	}
}

// decodeObject reads one flat JSON object, keeping key order. Numbers
// without a fraction or exponent become ints, others floats.
func decodeObject(line []byte) ([]string, []cell, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, nil, fmt.Errorf("ndjson: line %q is not an object", bytes.TrimSpace(line))
	}
	var (
		names []string
		row   []cell
	)
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, nil, err
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, nil, err
		}
		names = append(names, key.(string))
		row = append(row, cellOfJSON(raw))
	}
	return names, row, nil
}

func cellOfJSON(raw json.RawMessage) cell {
	s := string(raw)
	switch {
	case s == "null":
		return cell{kind: 'n'}
	case s == "true":
		return cell{kind: 'b', i: 1}
	case s == "false":
		return cell{kind: 'b'}
	case s[0] == '"':
		var str string
		if json.Unmarshal(raw, &str) == nil {
			return cell{kind: 's', s: str}
		}
	default:
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return cell{kind: 'i', i: i}
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return cell{kind: 'f', f: f}
		}
	}
	return cell{kind: 's', s: s} // arrays and objects compare by text
}

// ulpDistance counts the float64 values between a and b.
func ulpDistance(a, b float64) uint64 {
	ordered := func(f float64) int64 {
		u := int64(math.Float64bits(f))
		if u < 0 {
			u = math.MinInt64 - u
		}
		return u
	}
	x, y := ordered(a), ordered(b)
	if x > y {
		return uint64(x - y)
	}
	return uint64(y - x)
}

func isNum(c cell) bool { return c.kind == 'i' || c.kind == 'f' }

func num(c cell) float64 {
	if c.kind == 'i' {
		return float64(c.i)
	}
	return c.f
}

// sameCell compares exactly, except floats within maxULP. On the wire an
// integral float may print as an int, so wire comparisons also accept an
// int against a float of equal value within the tolerance.
func sameCell(want, got cell, wire bool) bool {
	if want.kind != got.kind {
		return wire && isNum(want) && isNum(got) && ulpDistance(num(want), num(got)) <= maxULP
	}
	switch want.kind {
	case 'f':
		return ulpDistance(want.f, got.f) <= maxULP
	case 's':
		return want.s == got.s
	}
	return want.i == got.i
}

// compareCells orders cells for canonical sorting: numbers by value, then
// by kind, strings lexically.
func compareCells(a, b cell) int {
	switch {
	case a.kind == 'i' && b.kind == 'i':
		return cmp.Compare(a.i, b.i)
	case isNum(a) && isNum(b):
		return cmp.Compare(num(a), num(b))
	case a.kind != b.kind:
		return cmp.Compare(a.kind, b.kind)
	case a.kind == 's':
		return cmp.Compare(a.s, b.s)
	}
	return cmp.Compare(a.i, b.i)
}

func sortRows(rows [][]cell) [][]cell {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(x, y []cell) int {
		for k := 0; k < len(x) && k < len(y); k++ {
			if c := compareCells(x[k], y[k]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(x), len(y))
	})
	return out
}

// compare checks got against the reference. Results of queries without
// ORDER BY are compared as multisets. For ordered results, keys lists the
// ORDER BY columns: they must match row by row, and rows tied on them may
// come in any order, so each run of ties is compared as a multiset — except
// the run that ends the result, which LIMIT may have cut anywhere among
// equal keys. Column names must match wherever both sides carry them.
func compare(want, got *table, keys []int, wire bool) error {
	if len(want.rows) != len(got.rows) {
		return fmt.Errorf("got %d rows, want %d", len(got.rows), len(want.rows))
	}
	if len(want.rows) > 0 && fmt.Sprint(want.cols) != fmt.Sprint(got.cols) {
		return fmt.Errorf("got columns %v, want %v", got.cols, want.cols)
	}
	if len(keys) == 0 {
		return sameRows(sortRows(want.rows), sortRows(got.rows), 0, wire)
	}
	w, g := want.rows, got.rows
	for r := range w {
		for _, k := range keys {
			if k >= len(w[r]) || k >= len(g[r]) || !sameCell(w[r][k], g[r][k], wire) {
				return fmt.Errorf("row %d: ORDER BY key %d differs: got %v, want %v", r, k, g[r], w[r])
			}
		}
	}
	tied := func(a, b []cell) bool {
		for _, k := range keys {
			if compareCells(a[k], b[k]) != 0 {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(w); {
		j := i + 1
		for j < len(w) && tied(w[i], w[j]) {
			j++
		}
		if j == len(w) {
			break
		}
		if err := sameRows(sortRows(w[i:j]), sortRows(g[i:j]), i, wire); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// sameRows compares two row lists position by position; first numbers the
// first row in messages.
func sameRows(w, g [][]cell, first int, wire bool) error {
	for r := range w {
		if len(w[r]) != len(g[r]) {
			return fmt.Errorf("row %d has %d values, want %d", first+r, len(g[r]), len(w[r]))
		}
		for c := range w[r] {
			if !sameCell(w[r][c], g[r][c], wire) {
				return fmt.Errorf("row %d column %d: got %+v, want %+v", first+r, c, g[r][c], w[r][c])
			}
		}
	}
	return nil
}
