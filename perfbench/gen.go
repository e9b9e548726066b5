package main

import (
	"math"
	"strconv"

	"proteus/internal/plugin/binpg"
	"proteus/internal/types"
)

// rng is splitmix64: every generated byte is a function of the workload seed.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng { return &rng{state: seed ^ 0x5eed5eed5eed5eed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func pick(r *rng, s []string) string { return s[r.intn(int64(len(s)))] }

// input is one generated file as the engine receives it.
type input struct {
	Name   string `json:"name"`
	Format string `json:"format"`
	Rows   int    `json:"rows"`
	Bytes  int    `json:"bytes"`
	data   []byte
	schema *types.RecordType // CSV only
	stride int               // CSV structural-index stride (0 = plug-in default)
}

// tpch is a scaled TPC-H subset (lineitem, orders) with numeric fields, as
// the paper's synthetic experiments use. Lineitems per order follow the
// TPC-H 1–7 distribution; file order is shuffled so no scan sees sorted keys.
type tpch struct {
	lineitem, orders []binpg.Column
	liRows, ordRows  int
}

var (
	lineitemSchema = types.NewRecordType(
		types.Field{Name: "l_orderkey", Type: types.Int},
		types.Field{Name: "l_partkey", Type: types.Int},
		types.Field{Name: "l_suppkey", Type: types.Int},
		types.Field{Name: "l_linenumber", Type: types.Int},
		types.Field{Name: "l_quantity", Type: types.Int},
		types.Field{Name: "l_extendedprice", Type: types.Float},
		types.Field{Name: "l_discount", Type: types.Float},
		types.Field{Name: "l_tax", Type: types.Float},
	)
	ordersSchema = types.NewRecordType(
		types.Field{Name: "o_orderkey", Type: types.Int},
		types.Field{Name: "o_custkey", Type: types.Int},
		types.Field{Name: "o_totalprice", Type: types.Float},
		types.Field{Name: "o_shippriority", Type: types.Int},
	)
)

func columnsFor(s *types.RecordType) []binpg.Column {
	cols := make([]binpg.Column, len(s.Fields))
	for i, f := range s.Fields {
		cols[i] = binpg.Column{Name: f.Name, Type: f.Type}
	}
	return cols
}

// genTPCH generates sf × 1.5M orders and their lineitems (sf 0.1 gives
// 150,000 orders and about 600,000 lineitems).
func genTPCH(seed uint64, sf float64) *tpch {
	r := newRng(seed)
	nOrders := int(1_500_000 * sf)
	t := &tpch{lineitem: columnsFor(lineitemSchema), orders: columnsFor(ordersSchema), ordRows: nOrders}
	li, od := t.lineitem, t.orders
	for i := 0; i < nOrders; i++ {
		okey := int64(i + 1)
		var total float64
		nLines := 1 + r.intn(7)
		for ln := int64(1); ln <= nLines; ln++ {
			price := float64(r.intn(90_000)+10_000) / 100
			disc := float64(r.intn(11)) / 100
			li[0].Ints = append(li[0].Ints, okey)
			li[1].Ints = append(li[1].Ints, r.intn(200_000)+1)
			li[2].Ints = append(li[2].Ints, r.intn(10_000)+1)
			li[3].Ints = append(li[3].Ints, ln)
			li[4].Ints = append(li[4].Ints, r.intn(50)+1)
			li[5].Floats = append(li[5].Floats, price)
			li[6].Floats = append(li[6].Floats, disc)
			li[7].Floats = append(li[7].Floats, float64(r.intn(9))/100)
			total += price * (1 - disc)
		}
		od[0].Ints = append(od[0].Ints, okey)
		od[1].Ints = append(od[1].Ints, r.intn(int64(nOrders/4)+1))
		od[2].Floats = append(od[2].Floats, total)
		od[3].Ints = append(od[3].Ints, r.intn(5))
	}
	t.liRows = len(li[0].Ints)
	shuffleRows(r, li, t.liRows)
	shuffleRows(r, od, nOrders)
	return t
}

// shuffleRows applies one Fisher–Yates permutation to every column.
func shuffleRows(r *rng, cols []binpg.Column, n int) {
	for i := n - 1; i > 0; i-- {
		j := int(r.intn(int64(i + 1)))
		for c := range cols {
			switch {
			case cols[c].Ints != nil:
				cols[c].Ints[i], cols[c].Ints[j] = cols[c].Ints[j], cols[c].Ints[i]
			case cols[c].Floats != nil:
				cols[c].Floats[i], cols[c].Floats[j] = cols[c].Floats[j], cols[c].Floats[i]
			}
		}
	}
}

// tpchInput renders one table in one format.
func tpchInput(name, format string, cols []binpg.Column, rows int, schema *types.RecordType) input {
	in := input{Name: name, Format: format, Rows: rows}
	switch format {
	case "csv":
		in.data, in.schema = renderText(cols, rows, false), schema
	case "json":
		in.data = renderText(cols, rows, true)
	default:
		in.data, _ = binpg.EncodeColumnar(cols) // equal-length columns always encode
	}
	in.Bytes = len(in.data)
	return in
}

// renderText writes rows as headerless CSV or as newline-delimited JSON
// objects; floats carry two decimals, as TPC-H money does.
func renderText(cols []binpg.Column, rows int, asJSON bool) []byte {
	perValue := 9
	if asJSON {
		perValue = 24
	}
	out := make([]byte, 0, rows*len(cols)*perValue)
	for r := 0; r < rows; r++ {
		if asJSON {
			out = append(out, '{')
		}
		for c := range cols {
			if c > 0 {
				out = append(out, ',')
			}
			if asJSON {
				out = append(out, '"')
				out = append(out, cols[c].Name...)
				out = append(out, `":`...)
			}
			if cols[c].Type.Kind() == types.KindInt {
				out = strconv.AppendInt(out, cols[c].Ints[r], 10)
			} else {
				out = appendCents(out, cols[c].Floats[r])
			}
		}
		if asJSON {
			out = append(out, '}')
		}
		out = append(out, '\n')
	}
	return out
}

// appendCents formats a non-negative float with two decimals, as
// strconv.AppendFloat(out, f, 'f', 2, 64) does, without its slower path.
func appendCents(out []byte, f float64) []byte {
	cents := int64(math.Round(f * 100))
	out = strconv.AppendInt(out, cents/100, 10)
	return append(out, '.', byte('0'+cents/10%10), byte('0'+cents%10))
}

// genSpam generates the spam-telemetry stand-in of the paper's §7.2 at a
// scale where the JSON feed holds n objects: a JSON feed with varying field
// order and a nested classes array, a CSV classification output with 14
// rows per object, and a binary history table with 18 rows per object (the
// paper's 1 : 14 : 18 proportions). Registered as spam_json, spam_csv and
// spam_bin, the names bench.SpamQueries expects.
func genSpam(seed uint64, n int) []input {
	r := newRng(seed)
	langs := []string{"en", "ru", "zh", "es", "de", "fr", "pt", "ja"}
	countries := []string{"US", "RU", "CN", "BR", "IN", "DE", "GB", "NL", "VN", "UA"}
	bots := []string{"rustock", "cutwail", "grum", "kelihos", "lethic", "mazben", "none"}
	classes := []string{"phish", "pharma", "casino", "malware", "dating", "seo"}

	var j []byte
	field := func(name string) { j = append(j, `"`+name+`": `...) }
	str := func(name, v string) { field(name); j = append(j, `"`+v+`"`...) }
	num := func(name string, v int64) { field(name); j = strconv.AppendInt(j, v, 10) }
	for i := 0; i < n; i++ {
		mid, lang, country, bot := int64(i+1), pick(r, langs), pick(r, countries), pick(r, bots)
		bodyLen, score, day := r.intn(4000)+50, r.float(), r.intn(365)
		var cls []byte
		nClasses := 1 + r.intn(3)
		for k := int64(0); k < nClasses; k++ {
			if k > 0 {
				cls = append(cls, ", "...)
			}
			cls = append(cls, `{"c": "`+pick(r, classes)+`", "w": `...)
			cls = append(strconv.AppendInt(cls, r.intn(100), 10), '}')
		}
		// Two field orders keep the JSON plug-in's level-0 index necessary.
		fields := []func(){
			func() { num("mid", mid) }, func() { str("lang", lang) }, func() { str("country", country) },
			func() { str("bot", bot) }, func() { num("body_len", bodyLen) },
			func() { field("score"); j = strconv.AppendFloat(j, score, 'f', 4, 64) },
			func() { num("day", day) },
		}
		if r.next()%2 == 1 {
			fields = []func(){fields[3], fields[0], fields[6], fields[5], fields[2], fields[1], fields[4]}
		}
		j = append(j, '{')
		for _, f := range fields {
			f()
			j = append(j, ", "...)
		}
		field("classes")
		j = append(append(j, '['), cls...)
		j = append(j, "]}\n"...)
	}

	csvRows, binRows := n*14, n*18
	var c []byte
	for i := 0; i < csvRows; i++ {
		c = strconv.AppendInt(c, r.intn(int64(n))+1, 10)
		c = append(c, ',')
		c = strconv.AppendInt(c, r.intn(int64(len(classes))), 10)
		c = append(c, ',')
		c = strconv.AppendInt(c, r.intn(5000), 10)
		c = append(c, ',')
		c = strconv.AppendFloat(c, r.float(), 'f', 4, 64)
		c = append(c, ',')
		c = strconv.AppendFloat(c, r.float(), 'f', 4, 64)
		c = append(c, ',')
		c = append(c, pick(r, classes)...)
		c = append(c, '\n')
	}
	csvSchema := types.NewRecordType(
		types.Field{Name: "mid", Type: types.Int},
		types.Field{Name: "class_id", Type: types.Int},
		types.Field{Name: "cluster", Type: types.Int},
		types.Field{Name: "score", Type: types.Float},
		types.Field{Name: "confidence", Type: types.Float},
		types.Field{Name: "label", Type: types.String},
	)

	bc := columnsFor(types.NewRecordType(
		types.Field{Name: "mid", Type: types.Int},
		types.Field{Name: "day", Type: types.Int},
		types.Field{Name: "hits", Type: types.Int},
		types.Field{Name: "volume", Type: types.Float},
		types.Field{Name: "feature", Type: types.Float},
	))
	for i := 0; i < binRows; i++ {
		bc[0].Ints = append(bc[0].Ints, r.intn(int64(n))+1)
		bc[1].Ints = append(bc[1].Ints, r.intn(365))
		bc[2].Ints = append(bc[2].Ints, r.intn(1000))
		bc[3].Floats = append(bc[3].Floats, r.float()*1e6)
		bc[4].Floats = append(bc[4].Floats, r.float())
	}
	bin, _ := binpg.EncodeColumnar(bc) // equal-length columns always encode
	return []input{
		{Name: "spam_bin", Format: "bin", Rows: binRows, Bytes: len(bin), data: bin},
		{Name: "spam_csv", Format: "csv", Rows: csvRows, Bytes: len(c), data: c, schema: csvSchema, stride: 5},
		{Name: "spam_json", Format: "json", Rows: n, Bytes: len(j), data: j},
	}
}
