package wire

import "bytes"

// Trace-ID framing. A Query payload may optionally carry a client-chosen
// trace ID ahead of the SQL text, encoded as
//
//	0x00 <id bytes> 0x00 <body>
//
// SQL text never begins with a NUL byte, so an old client's plain payload
// and a traced payload are distinguished by the first byte alone — old
// clients keep working against new servers and vice versa. Error payloads
// sent back for a traced request carry the same prefix, letting the client
// attach the trace ID to the error it surfaces.

// AppendTraced prefixes body with the trace ID. An empty id returns body
// unchanged (the untraced wire form). IDs must not contain NUL bytes; any
// that do are sent without a trace prefix rather than corrupting framing.
func AppendTraced(id string, body []byte) []byte {
	if id == "" || bytes.IndexByte([]byte(id), 0) >= 0 {
		return body
	}
	out := make([]byte, 0, len(id)+2+len(body))
	out = append(out, 0)
	out = append(out, id...)
	out = append(out, 0)
	return append(out, body...)
}

// SplitTraced splits a possibly-traced payload into its trace ID and body.
// Payloads without the 0x00 prefix return id "" and the payload untouched.
// A malformed prefix — no terminating NUL, or an empty ID, which
// AppendTraced never writes — is treated as untraced rather than rejected,
// so a corrupt prefix degrades to a missing trace ID.
func SplitTraced(payload []byte) (id string, body []byte) {
	if len(payload) == 0 || payload[0] != 0 {
		return "", payload
	}
	end := bytes.IndexByte(payload[1:], 0)
	if end <= 0 {
		return "", payload
	}
	return string(payload[1 : 1+end]), payload[2+end:]
}
