package resultcache

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// collect walks data and returns the accepted payload copies plus the valid
// prefix length.
func collect(data []byte) ([][]byte, int) {
	var got [][]byte
	n := walkFrames(data, func(p []byte) bool {
		got = append(got, append([]byte(nil), p...))
		return true
	})
	return got, n
}

func TestRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("a longer payload with bytes \x00\xff"), []byte("z")}
	var buf []byte
	want := 0
	for _, p := range payloads {
		buf = appendFrame(buf, p)
		want += frameSize(len(p))
	}
	if len(buf) != want {
		t.Fatalf("encoded %d bytes, Size sums to %d", len(buf), want)
	}
	got, valid := collect(buf)
	if valid != len(buf) {
		t.Fatalf("valid prefix %d, want %d", valid, len(buf))
	}
	if len(got) != len(payloads) {
		t.Fatalf("walked %d payloads, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("payload %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}

func TestWalkStopsAtTornHeader(t *testing.T) {
	buf := appendFrame(nil, []byte("whole"))
	whole := len(buf)
	buf = append(buf, 0x01, 0x02, 0x03) // 3 bytes cannot hold a header
	got, valid := collect(buf)
	if len(got) != 1 || valid != whole {
		t.Fatalf("got %d payloads, valid %d; want 1 payload, valid %d", len(got), valid, whole)
	}
}

func TestWalkStopsAtTruncatedPayload(t *testing.T) {
	buf := appendFrame(nil, []byte("whole"))
	whole := len(buf)
	buf = appendFrame(buf, []byte("truncated tail"))
	buf = buf[:len(buf)-5]
	got, valid := collect(buf)
	if len(got) != 1 || valid != whole {
		t.Fatalf("got %d payloads, valid %d; want 1 payload, valid %d", len(got), valid, whole)
	}
}

func TestWalkStopsAtCorruptPayload(t *testing.T) {
	buf := appendFrame(nil, []byte("first"))
	whole := len(buf)
	buf = appendFrame(buf, []byte("second"))
	buf[len(buf)-1] ^= 0xff
	got, valid := collect(buf)
	if len(got) != 1 || valid != whole {
		t.Fatalf("got %d payloads, valid %d; want 1 payload, valid %d", len(got), valid, whole)
	}
}

func TestWalkBoundsPayloadLength(t *testing.T) {
	// A frame whose length field claims more than maxPayload stops the walk
	// even when the data after it happens to be long enough.
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxPayload+1)
	buf := append(appendFrame(nil, []byte("ok")), hdr[:]...)
	buf = append(buf, make([]byte, 64)...)
	got, valid := collect(buf)
	if len(got) != 1 || valid != frameSize(2) {
		t.Fatalf("got %d payloads, valid %d; want 1 payload, valid %d", len(got), valid, frameSize(2))
	}
}

func TestWalkStopsWhenFnRejects(t *testing.T) {
	buf := appendFrame(appendFrame(appendFrame(nil, []byte("a")), []byte("bad")), []byte("c"))
	var seen []string
	valid := walkFrames(buf, func(p []byte) bool {
		if string(p) == "bad" {
			return false
		}
		seen = append(seen, string(p))
		return true
	})
	if len(seen) != 1 || seen[0] != "a" || valid != frameSize(1) {
		t.Fatalf("seen %v, valid %d; want [a], valid %d", seen, valid, frameSize(1))
	}
}

func TestWalkEmpty(t *testing.T) {
	if got, valid := collect(nil); len(got) != 0 || valid != 0 {
		t.Fatalf("empty walk returned %d payloads, valid %d", len(got), valid)
	}
}
