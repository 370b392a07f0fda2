package wire

import (
	"bytes"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"lambdadb/internal/types"
)

// fuzzFrameLimit is the ReadFrameLimit bound under fuzzing: small, so an
// allocation sized by a length prefix instead of the limit stands out.
const fuzzFrameLimit = 64

// FuzzDecoders feeds one input to every decoder in this package that reads
// bytes off a socket: as a frame stream (ReadFrameLimit) and as a payload
// (SplitTraced, SplitErrorCode, DecodePrepare, DecodeBind, DecodeResultSet).
// None may panic; together they allocate at most the frame limit plus a
// constant factor of the input, so no length field drives an allocation;
// and wherever an encoder exists, decode → encode → decode gives back the
// first decode.
func FuzzDecoders(f *testing.F) {
	frame := func(typ byte, payload string) []byte {
		var b bytes.Buffer
		_ = WriteFrame(&b, typ, []byte(payload))
		return b.Bytes()
	}
	for _, seed := range [][]byte{
		frame(Query, "SELECT 1"),
		frame(Bind, "q\ti1"),
		{Query, 0xff, 0xff, 0xff, 0xff, 'x'},
		{Query, 0, 0, 0, 9, 'x'},
		AppendTraced("a1b2c3d4e5f60718", []byte("SELECT 1")),
		[]byte("\x00\x00SELECT 1"),
		[]byte("\x00no-terminator"),
		EncodeErrorCode(CodeReadOnly, map[string]string{"primary": "10.0.0.1:5432"}, "INSERT rejected"),
		[]byte("[not a code] message"),
		EncodePrepare("q (INT)", "SELECT x\tFROM t WHERE id = $1"),
		EncodeBind("q", []types.Value{types.NewInt(-7), types.NewFloat(math.Inf(-1)), types.NewString("a\\b\tc"),
			types.NewBool(true), types.NewNull(types.Unknown)}),
		[]byte("q\tx1\ti\tbmaybe"),
		EncodeResultSet(&ResultSet{Columns: []string{"id", "name:x", "f", "ok"},
			Types: []types.Type{types.Int64, types.String, types.Float64, types.Bool},
			Rows: [][]types.Value{{types.NewInt(1), types.NewString("a\nb"), types.NewFloat(-0.5), types.NewBool(false)},
				{types.NewNull(types.Int64), types.NewString(`\N`), types.NewFloat(math.NaN()), types.NewNull(types.Bool)}}}),
		[]byte("a:BIGINT\nnot-a-number"),
		[]byte("a:UNKNOWN\tb\n1\t2"),
		{}, {0}, []byte("\\"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, payload, frameErr := ReadFrameLimit(bytes.NewReader(data), fuzzFrameLimit)
		id, body := SplitTraced(data)
		code, details, msg := SplitErrorCode(data)
		name, stmt, prepErr := DecodePrepare(data)
		bindName, args, bindErr := DecodeBind(data)
		rs, rsErr := DecodeResultSet(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(fuzzFrameLimit+256*len(data)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}

		if frameErr == nil {
			if len(payload) > fuzzFrameLimit || typ != data[0] || !bytes.Equal(payload, data[5:5+len(payload)]) {
				t.Fatalf("ReadFrameLimit(%q) = %q, %q", data, typ, payload)
			}
			var b bytes.Buffer
			if err := WriteFrame(&b, typ, payload); err != nil {
				t.Fatal(err)
			}
			typ2, payload2, err := ReadFrameLimit(&b, fuzzFrameLimit)
			if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
				t.Fatalf("frame %q %q re-read as %q %q, %v", typ, payload, typ2, payload2, err)
			}
		}

		if id2, body2 := SplitTraced(AppendTraced(id, body)); id2 != id || !bytes.Equal(body2, body) {
			t.Fatalf("SplitTraced(%q) = %q %q, re-split as %q %q", data, id, body, id2, body2)
		}

		if code != "" {
			code2, details2, msg2 := SplitErrorCode(EncodeErrorCode(code, details, msg))
			if code2 != code || !maps.Equal(details2, details) || msg2 != msg {
				t.Fatalf("SplitErrorCode(%q) = %q %v %q, re-split as %q %v %q", data, code, details, msg, code2, details2, msg2)
			}
		} else if msg != string(data) {
			t.Fatalf("uncoded body %q came back as %q", data, msg)
		}

		if prepErr == nil {
			name2, stmt2, err := DecodePrepare(EncodePrepare(name, stmt))
			if err != nil || name2 != name || stmt2 != stmt {
				t.Fatalf("DecodePrepare(%q) = %q %q, re-decoded as %q %q, %v", data, name, stmt, name2, stmt2, err)
			}
		}

		if bindErr == nil {
			name2, args2, err := DecodeBind(EncodeBind(bindName, args))
			if err != nil || name2 != bindName || !slices.EqualFunc(args2, args, sameValue) {
				t.Fatalf("DecodeBind(%q) = %q %v, re-decoded as %q %v, %v", data, bindName, args, name2, args2, err)
			}
		}

		if rsErr == nil {
			rs2, err := DecodeResultSet(EncodeResultSet(rs))
			if err != nil || !slices.Equal(rs2.Columns, rs.Columns) || !slices.Equal(rs2.Types, rs.Types) ||
				!slices.EqualFunc(rs2.Rows, rs.Rows, func(a, b []types.Value) bool { return slices.EqualFunc(a, b, sameValue) }) {
				t.Fatalf("DecodeResultSet(%q) = %+v, re-decoded as %+v, %v", data, rs, rs2, err)
			}
		}
	})
}

// sameValue compares two values field by field, floats by bits (so NaN
// equals NaN and -0 differs from 0).
func sameValue(a, b types.Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}
