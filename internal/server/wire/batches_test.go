package wire

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lambdadb/internal/types"
)

// relation is a result as the server holds it: names, types and batches.
type relation struct {
	columns  []string
	colTypes []types.Type
	batches  []*types.Batch
}

// resultSet pivots the relation through Batch.Row: the rows EncodeResultSet
// is given for the same result.
func (r relation) resultSet() *ResultSet {
	rs := &ResultSet{Columns: r.columns, Types: r.colTypes}
	for _, b := range r.batches {
		for i := 0; i < b.Len(); i++ {
			rs.Rows = append(rs.Rows, b.Row(i))
		}
	}
	return rs
}

// mixedRelation holds n rows of every column type in batches of uneven
// sizes (empty ones too): NULLs, escapes, NaN, ±Inf, -0 and an
// Unknown-typed all-NULL column, under column names that need escaping.
func mixedRelation(n int) relation {
	schema := types.Schema{
		{Name: "id", Type: types.Int64},
		{Name: "x\tf", Type: types.Float64},
		{Name: "s:\\n", Type: types.String},
		{Name: "ok\n", Type: types.Bool},
		{Name: "nothing", Type: types.Unknown},
	}
	r := relation{columns: schema.Names()}
	for _, c := range schema {
		r.colTypes = append(r.colTypes, c.Type)
	}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.1, -1e300, 5e-324}
	strs := []string{"", `\N`, "a\tb", "line\nbreak\r", `back\slash`, "plain", "ünïcode"}
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 0, 1024, 3000, 17, 0, 5000}
	for row := 0; row < n; {
		size := min(sizes[len(r.batches)%len(sizes)], n-row)
		b := &types.Batch{Schema: schema, Cols: make([]*types.Column, len(schema))}
		for j, c := range schema {
			b.Cols[j] = types.NewColumn(c.Type, size)
		}
		for i := 0; i < size; i++ {
			k := row + i
			b.Cols[0].Append(nullEvery(k, 11, types.NewInt(int64(k)*int64(1-2*(k%2))<<(k%40))))
			b.Cols[1].Append(nullEvery(k, 13, types.NewFloat(floats[k%len(floats)]*rng.Float64()+floats[k%len(floats)])))
			b.Cols[2].Append(nullEvery(k, 7, types.NewString(strs[k%len(strs)])))
			b.Cols[3].Append(nullEvery(k, 5, types.NewBool(k%3 == 0)))
			b.Cols[4].AppendNull()
		}
		r.batches = append(r.batches, b)
		row += size
	}
	return r
}

// nullEvery is v, or a NULL of its type on every every-th row.
func nullEvery(k, every int, v types.Value) types.Value {
	if k%every == 0 {
		return types.NewNull(v.T)
	}
	return v
}

func TestEncodeBatchesMatchesEncodeResultSet(t *testing.T) {
	for _, n := range []int{0, 1, 9, encodePartRows, 3*encodePartRows + 17} {
		r := mixedRelation(n)
		want := EncodeResultSet(r.resultSet())
		for _, workers := range []int{1, 2, 8} {
			got, err := EncodeBatches(context.Background(), r.columns, r.colTypes, r.batches, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d rows at %d workers: EncodeBatches differs from EncodeResultSet at byte %d",
					n, workers, firstDiff(got, want))
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestEncodeBatchesOverMaxFrame(t *testing.T) {
	schema := types.Schema{{Name: "s", Type: types.String}}
	// Just over the limit in one part, then in two.
	for _, rows := range []int{17, 2 * encodePartRows} {
		s := strings.Repeat("x", MaxFrame/rows+1)
		b := types.NewBatch(schema)
		for range rows {
			b.Cols[0].AppendString(s)
		}
		_, err := EncodeBatches(context.Background(), schema.Names(), []types.Type{types.String}, []*types.Batch{b}, 2)
		want := fmt.Sprintf("exceeds the %d-byte frame limit", MaxFrame)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%d rows: err = %v, want one that %s", rows, err, want)
		}
	}
}

func TestDecodeResultSetWorkers(t *testing.T) {
	r := mixedRelation(3*encodePartRows + 17)
	want := r.resultSet()
	payload := EncodeResultSet(want)
	if len(payload) < 4*decodePartBytes {
		t.Fatalf("the %d-byte payload is too small to cut into parts", len(payload))
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := decodeResultSet(payload, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Columns, want.Columns) || !slices.Equal(got.Types, want.Types) ||
			!slices.EqualFunc(got.Rows, want.Rows, func(a, b []types.Value) bool { return slices.EqualFunc(a, b, sameValue) }) {
			t.Fatalf("%d workers: decoded result differs from the encoded one", workers)
		}
		for i, row := range got.Rows {
			if cap(row) != len(row) {
				t.Fatalf("%d workers: row %d has capacity %d beyond its %d values", workers, i, cap(row), len(row))
			}
		}
	}
}

func TestDecodeResultSetReportsFirstBadRow(t *testing.T) {
	var b strings.Builder
	b.WriteString("id:BIGINT\ts:VARCHAR")
	const rows = 40000
	for i := range rows {
		switch i {
		case 5:
			b.WriteString("\nfive\tbad")
		case rows - 5:
			b.WriteString("\n1\t2\t3")
		default:
			fmt.Fprintf(&b, "\n%d\tv%d", i, i)
		}
	}
	payload := []byte(b.String())
	if len(payload) < 2*decodePartBytes {
		t.Fatalf("the %d-byte payload is too small to cut into parts", len(payload))
	}
	for _, workers := range []int{1, 2, 8} {
		for range 5 {
			_, err := decodeResultSet(payload, workers)
			if want := `wire: column "id": bad BIGINT "five"`; err == nil || err.Error() != want {
				t.Fatalf("%d workers: err = %v, want %s", workers, err, want)
			}
		}
	}
}

// BenchmarkResultFrame encodes 100k rows shaped like the benchmark's kv
// table (id, grp, x, s) from their batches, then decodes the payload: the
// two codec halves of a served 100k-row fetch. Print-only (make bench).
func BenchmarkResultFrame(b *testing.B) {
	schema := types.Schema{
		{Name: "id", Type: types.Int64},
		{Name: "grp", Type: types.Int64},
		{Name: "x", Type: types.Float64},
		{Name: "s", Type: types.String},
	}
	const rows = 100_000
	rng := rand.New(rand.NewSource(1))
	var batches []*types.Batch
	for lo := 0; lo < rows; lo += types.BatchSize {
		bt := types.NewBatch(schema)
		for i := lo; i < min(lo+types.BatchSize, rows); i++ {
			bt.Cols[0].AppendInt(int64(i))
			bt.Cols[1].AppendInt(int64(i % 100))
			bt.Cols[2].AppendFloat(rng.Float64() * 1000)
			bt.Cols[3].AppendString(fmt.Sprintf("v%d", i))
		}
		batches = append(batches, bt)
	}
	colTypes := []types.Type{types.Int64, types.Int64, types.Float64, types.String}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		payload, err := EncodeBatches(context.Background(), schema.Names(), colTypes, batches, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		rs, err := DecodeResultSet(payload)
		if err != nil || len(rs.Rows) != rows {
			b.Fatalf("decoded %d rows, %v", len(rs.Rows), err)
		}
	}
}
