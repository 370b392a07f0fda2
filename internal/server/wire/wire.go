// Package wire implements the length-prefixed text protocol spoken between
// lambdaserver and its clients.
//
// Every frame is [1-byte type][4-byte big-endian payload length][payload],
// payloads are UTF-8 text. The client sends Query frames, each carrying one
// or more semicolon-separated SQL statements; the server answers every
// Query with exactly one frame — Result (a typed result set), Affected (a
// decimal row count), or Error (a message; the connection stays usable).
//
// A Result payload is newline-separated lines: a header line of "name:TYPE"
// fields joined by tabs, then one line per row of tab-separated encoded
// values. Value text escapes backslash, tab, newline, and carriage return
// as '\\', '\t', '\n', '\r', and spells NULL as '\N', so every string value
// round-trips and the separators stay unambiguous.
//
// Two encoders write the same bytes: EncodeResultSet from value rows, and
// EncodeBatches, which the server uses, straight from a result's column
// batches. Both ends of a Result frame work in parts on the engine's worker
// pool (package morsel): EncodeBatches encodes fixed row counts and joins
// them, DecodeResultSet decodes byte ranges cut at line ends into one slab
// of values.
package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"lambdadb/internal/morsel"
	"lambdadb/internal/types"
)

// Frame types.
const (
	Query    byte = 'Q' // client -> server: SQL text
	Result   byte = 'R' // server -> client: typed result set
	Affected byte = 'A' // server -> client: affected-row count
	Error    byte = 'E' // server -> client: error message

	// Prepared-statement frames (see prepared.go). Servers predating them
	// drop the connection on an unknown frame type, so clients only send
	// Bind/Deallocate after a successful PREPARE round-trip proved the
	// server understands prepared statements.
	Prepare    byte = 'P' // client -> server: name + statement text
	Bind       byte = 'B' // client -> server: name + argument values
	Deallocate byte = 'X' // client -> server: name ("" = ALL)

	// Replication stream frames (see internal/repl). A replica opens an
	// ordinary connection and sends ReplStart instead of a Query; from then
	// on the connection is a replication stream, not a query session.
	ReplStart  byte = 'S' // replica -> primary: handshake with resume position
	ReplSeg    byte = 'G' // primary -> replica: following records belong to this segment
	ReplRecord byte = 'W' // primary -> replica: one redo record (end offset + CRC + payload)
	ReplPos    byte = 'L' // primary -> replica: heartbeat with durable position and clock
	ReplResync byte = 'Y' // primary -> replica: discard local state; a snapshot follows
	ReplChunk  byte = 'C' // primary -> replica: one chunk of the resync snapshot
	ReplAck    byte = 'K' // replica -> primary: durably applied through this position
)

// MaxFrame bounds a query-protocol frame payload; oversized frames are a
// protocol error, so a corrupt or malicious length prefix cannot drive an
// allocation.
const MaxFrame = 16 << 20

// MaxReplFrame bounds a replication-stream frame: a ReplRecord carries one
// WAL record payload, whose own plausibility bound is 1 GiB, plus a small
// binary header.
const MaxReplFrame = 1<<30 + 64

// WriteFrame writes one frame. The write-side bound is MaxReplFrame (the
// largest payload any frame type may carry); readers enforce the tighter
// per-protocol limit.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxReplFrame {
		return fmt.Errorf("wire: %d-byte payload exceeds the %d-byte frame limit", len(payload), MaxReplFrame)
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one query-protocol frame (payloads bounded by MaxFrame).
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return ReadFrameLimit(r, MaxFrame)
}

// ReadFrameLimit reads one frame whose payload may be up to limit bytes.
// Replication streams read with MaxReplFrame, the query protocol with
// MaxFrame.
func ReadFrameLimit(r io.Reader, limit int) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if int64(n) > int64(limit) {
		return 0, nil, fmt.Errorf("wire: %d-byte frame exceeds the %d-byte limit", n, limit)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// ResultSet is the decoded form of a Result frame.
type ResultSet struct {
	Columns []string
	Types   []types.Type
	Rows    [][]types.Value
}

// EncodeResultSet renders a result set as a Result payload.
func EncodeResultSet(rs *ResultSet) []byte {
	b := appendHeader(nil, rs.Columns, rs.Types)
	for _, row := range rs.Rows {
		b = append(b, '\n')
		for i, v := range row {
			if i > 0 {
				b = append(b, '\t')
			}
			b = appendValue(b, v)
		}
	}
	return b
}

// encodePartRows is how many rows EncodeBatches encodes as one part.
const encodePartRows = 4096

// EncodeBatches renders a relation, its column names, types and batches,
// as a Result payload: byte for byte what EncodeResultSet writes for the
// same rows, without building a value per cell. The rows are cut into parts
// of encodePartRows rows, encoded on the worker pool with workers workers
// and joined once. A payload over MaxFrame is an error naming its size,
// returned before the join. Cancelling ctx stops the parts not yet begun.
func EncodeBatches(ctx context.Context, columns []string, colTypes []types.Type, batches []*types.Batch, workers int) ([]byte, error) {
	head := appendHeader(nil, columns, colTypes)
	parts := cutRows(batches, encodePartRows)
	bufs := make([][]byte, len(parts))
	if err := morsel.For(ctx, "wire encode", workers, len(parts), func(_, p int) error {
		bufs[p] = appendRows(make([]byte, 0, partBytes(parts[p], len(columns))), parts[p])
		return nil
	}); err != nil {
		return nil, err
	}
	total := len(head)
	for _, buf := range bufs {
		total += len(buf)
	}
	if total > MaxFrame {
		return nil, fmt.Errorf("wire: the %d-byte result exceeds the %d-byte frame limit", total, MaxFrame)
	}
	out := append(make([]byte, 0, total), head...)
	for _, buf := range bufs {
		out = append(out, buf...)
	}
	return out, nil
}

// rowSpan is rows [lo, hi) of one batch.
type rowSpan struct {
	b      *types.Batch
	lo, hi int
}

// cutRows cuts the rows of batches into parts of per rows each, the last
// one shorter.
func cutRows(batches []*types.Batch, per int) [][]rowSpan {
	var parts [][]rowSpan
	var part []rowSpan
	room := per
	for _, b := range batches {
		for lo, n := 0, b.Len(); lo < n; {
			hi := min(n, lo+room)
			part = append(part, rowSpan{b, lo, hi})
			room -= hi - lo
			lo = hi
			if room == 0 {
				parts, part, room = append(parts, part), nil, per
			}
		}
	}
	if part != nil {
		parts = append(parts, part)
	}
	return parts
}

// partBytes guesses the encoded size of a part's rows: 8 bytes a cell.
func partBytes(spans []rowSpan, width int) int {
	rows := 0
	for _, s := range spans {
		rows += s.hi - s.lo
	}
	return rows * width * 8
}

// appendRows encodes the rows of spans, each line led by its newline.
func appendRows(b []byte, spans []rowSpan) []byte {
	for _, s := range spans {
		for i := s.lo; i < s.hi; i++ {
			b = append(b, '\n')
			for j, c := range s.b.Cols {
				if j > 0 {
					b = append(b, '\t')
				}
				b = appendCell(b, c, i)
			}
		}
	}
	return b
}

// appendCell encodes row i of c as appendValue encodes c.Value(i), reading
// the column's typed slice directly.
func appendCell(b []byte, c *types.Column, i int) []byte {
	if c.IsNull(i) {
		return append(b, nullText...)
	}
	switch c.T {
	case types.Int64:
		return strconv.AppendInt(b, c.Ints[i], 10)
	case types.Float64:
		return strconv.AppendFloat(b, c.Floats[i], 'g', -1, 64)
	case types.Bool:
		return strconv.AppendBool(b, c.Bools[i])
	case types.String:
		return appendEscaped(b, c.Strs[i])
	}
	return appendValue(b, c.Value(i))
}

// appendHeader writes the header line: escaped name:TYPE fields joined by
// tabs.
func appendHeader(b []byte, columns []string, colTypes []types.Type) []byte {
	for i, name := range columns {
		if i > 0 {
			b = append(b, '\t')
		}
		b = appendEscaped(b, name)
		b = append(b, ':')
		b = append(b, colTypes[i].String()...)
	}
	return b
}

// decodePartBytes is about how many payload bytes DecodeResultSet decodes
// as one part; parts end at line ends.
const decodePartBytes = 64 << 10

// DecodeResultSet parses a Result payload. The body is cut at line ends
// into parts of about decodePartBytes, counted and then decoded on the
// worker pool into one slab of values: every row shares it, so a caller
// that keeps a few rows of a large result should copy them. The error is
// the one a front-to-back decode meets first.
func DecodeResultSet(payload []byte) (*ResultSet, error) {
	return decodeResultSet(payload, runtime.GOMAXPROCS(0))
}

func decodeResultSet(payload []byte, workers int) (*ResultSet, error) {
	head, body, hasBody := strings.Cut(string(payload), "\n")
	header := strings.Split(head, "\t")
	rs := &ResultSet{
		Columns: make([]string, len(header)),
		Types:   make([]types.Type, len(header)),
	}
	for i, h := range header {
		colon := strings.LastIndexByte(h, ':')
		if colon < 0 {
			return nil, fmt.Errorf("wire: malformed result header field %q", h)
		}
		name, _, err := unescape(h[:colon])
		if err != nil {
			return nil, err
		}
		rs.Columns[i] = name
		rs.Types[i] = typeFromName(h[colon+1:])
	}
	if !hasBody {
		rs.Rows = [][]types.Value{}
		return rs, nil
	}
	parts := cutLines(body, decodePartBytes)
	// Part p holds rows [rowAt[p], rowAt[p+1]) and, when every row has
	// the header's width, values [valAt[p], valAt[p+1]): one per field, so
	// the slab is sized by the payload's separators, whatever it claims.
	rowAt := make([]int, len(parts)+1)
	valAt := make([]int, len(parts)+1)
	if err := morsel.For(context.TODO(), "wire decode", workers, len(parts), func(_, p int) error {
		rows := strings.Count(parts[p], "\n") + 1
		rowAt[p+1], valAt[p+1] = rows, rows+strings.Count(parts[p], "\t")
		return nil
	}); err != nil {
		return nil, err
	}
	for p := range parts {
		rowAt[p+1] += rowAt[p]
		valAt[p+1] += valAt[p]
	}
	rs.Rows = make([][]types.Value, rowAt[len(parts)])
	slab := make([]types.Value, valAt[len(parts)])
	if err := morsel.For(context.TODO(), "wire decode", workers, len(parts), func(_, p int) error {
		return rs.decodeRows(parts[p], rs.Rows[rowAt[p]:rowAt[p+1]], slab[valAt[p]:valAt[p+1]])
	}); err != nil {
		return nil, err
	}
	return rs, nil
}

// cutLines cuts newline-separated text into parts of whole lines, each
// about size bytes; the newline at a cut belongs to neither side.
func cutLines(text string, size int) []string {
	var parts []string
	for len(text) > size {
		i := strings.IndexByte(text[size:], '\n')
		if i < 0 {
			break
		}
		parts = append(parts, text[:size+i])
		text = text[size+i+1:]
	}
	return append(parts, text)
}

// decodeRows decodes the lines of text into rows, each a three-index slice
// of slab, so appending to one row never reaches the next.
func (rs *ResultSet) decodeRows(text string, rows [][]types.Value, slab []types.Value) error {
	width := len(rs.Types)
	for r := range rows {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		}
		if fields := strings.Count(line, "\t") + 1; fields != width {
			return fmt.Errorf("wire: row has %d fields, header has %d", fields, width)
		}
		row := slab[:width:width]
		slab = slab[width:]
		for i := range row {
			field := line
			if k := strings.IndexByte(line, '\t'); k >= 0 {
				field, line = line[:k], line[k+1:]
			}
			v, err := decodeValue(field, rs.Types[i])
			if err != nil {
				return fmt.Errorf("wire: column %q: %w", rs.Columns[i], err)
			}
			row[i] = v
		}
		rows[r] = row
	}
	return nil
}

// typeFromName maps the SQL spelling produced by types.Type.String back to
// the type; unrecognized names decode as strings.
func typeFromName(s string) types.Type {
	switch s {
	case "BIGINT":
		return types.Int64
	case "DOUBLE":
		return types.Float64
	case "VARCHAR":
		return types.String
	case "BOOLEAN":
		return types.Bool
	}
	return types.Unknown
}

// nullText spells NULL.
const nullText = `\N`

// appendValue encodes one value.
func appendValue(b []byte, v types.Value) []byte {
	if v.Null {
		return append(b, nullText...)
	}
	switch v.T {
	case types.Int64:
		return strconv.AppendInt(b, v.I, 10)
	case types.Float64:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case types.Bool:
		return strconv.AppendBool(b, v.B)
	default:
		return appendEscaped(b, v.String())
	}
}

// decodeValue parses one encoded value as type t. Unknown-typed columns
// decode as strings.
func decodeValue(s string, t types.Type) (types.Value, error) {
	text, isNull, err := unescape(s)
	if err != nil {
		return types.Value{}, err
	}
	if isNull {
		return types.NewNull(t), nil
	}
	switch t {
	case types.Int64:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("bad BIGINT %q", text)
		}
		return types.NewInt(n), nil
	case types.Float64:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("bad DOUBLE %q", text)
		}
		return types.NewFloat(f), nil
	case types.Bool:
		switch text {
		case "true":
			return types.NewBool(true), nil
		case "false":
			return types.NewBool(false), nil
		}
		return types.Value{}, fmt.Errorf("bad BOOLEAN %q", text)
	default:
		return types.NewString(text), nil
	}
}

// appendEscaped writes s with the protocol's separator characters escaped.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '\t':
			b = append(b, '\\', 't')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		default:
			b = append(b, c)
		}
	}
	return b
}

// unescape reverses appendEscaped; the bare token `\N` decodes as NULL
// (a literal backslash-N string value arrives as `\\N`).
func unescape(s string) (text string, isNull bool, err error) {
	if s == nullText {
		return "", true, nil
	}
	if !strings.ContainsRune(s, '\\') {
		return s, false, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", false, fmt.Errorf("wire: dangling escape in %q", s)
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		default:
			return "", false, fmt.Errorf("wire: bad escape \\%c in %q", s[i], s)
		}
	}
	return b.String(), false, nil
}
