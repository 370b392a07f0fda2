package repl

import (
	"bytes"
	"testing"

	"lambdadb/internal/wal"
)

// FuzzControlPayloads feeds one input to every replication-stream payload
// parser. None may panic, and whatever one accepts re-encodes to a payload
// it parses to the same values.
func FuzzControlPayloads(f *testing.F) {
	pos := wal.Pos{Seg: 3, Off: 4096}
	for _, seed := range [][]byte{
		encodeHandshake(pos, 17, 2),
		encodePosPayload("POS", pos, 18, 2),
		encodePosPayload("ACK", wal.Pos{Seg: 1 << 40, Off: -1}, 1<<63, 0),
		encodeSeg(9),
		encodeResync(5, 1<<20, 40, 3),
		appendRecordPayload(nil, 8192, 0xdeadbeef, []byte("redo")),
		[]byte("REPL1 seg=1 off=2 clock=3"),
		[]byte("SEG -1"),
		[]byte("RESYNC seg=1 size=-5 clock=2 epoch=3 trailing"),
		[]byte("POS seg=+1 off=0x10 clock=1 epoch=1"),
		{}, {0, 0, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, clock, epoch, err := parseHandshake(data); err == nil {
			p2, clock2, epoch2, err := parseHandshake(encodeHandshake(p, clock, epoch))
			if err != nil || p2 != p || clock2 != clock || epoch2 != epoch {
				t.Fatalf("handshake %q = %v %d %d, re-parsed as %v %d %d, %v", data, p, clock, epoch, p2, clock2, epoch2, err)
			}
		}
		for _, tag := range []string{"POS", "ACK"} {
			p, clock, epoch, err := parsePosPayload(tag, data)
			if err != nil {
				continue
			}
			p2, clock2, epoch2, err := parsePosPayload(tag, encodePosPayload(tag, p, clock, epoch))
			if err != nil || p2 != p || clock2 != clock || epoch2 != epoch {
				t.Fatalf("%s payload %q = %v %d %d, re-parsed as %v %d %d, %v", tag, data, p, clock, epoch, p2, clock2, epoch2, err)
			}
		}
		if seq, err := parseSeg(data); err == nil {
			if seq2, err := parseSeg(encodeSeg(seq)); err != nil || seq2 != seq {
				t.Fatalf("SEG payload %q = %d, re-parsed as %d, %v", data, seq, seq2, err)
			}
		}
		if seg, size, clock, epoch, err := parseResync(data); err == nil {
			seg2, size2, clock2, epoch2, err := parseResync(encodeResync(seg, size, clock, epoch))
			if err != nil || seg2 != seg || size2 != size || clock2 != clock || epoch2 != epoch {
				t.Fatalf("RESYNC payload %q = %d %d %d %d, re-parsed as %d %d %d %d, %v",
					data, seg, size, clock, epoch, seg2, size2, clock2, epoch2, err)
			}
		}
		if end, crc, rec, err := parseRecordPayload(data); err == nil {
			end2, crc2, rec2, err := parseRecordPayload(appendRecordPayload(nil, end, crc, rec))
			if err != nil || end2 != end || crc2 != crc || !bytes.Equal(rec2, rec) {
				t.Fatalf("record payload %q = %d %#x %q, re-parsed as %d %#x %q, %v", data, end, crc, rec, end2, crc2, rec2, err)
			}
		}
	})
}
