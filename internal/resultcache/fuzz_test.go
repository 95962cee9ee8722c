package resultcache

// FuzzCacheRecord throws arbitrary bytes at the segment decoder: whatever
// the input, decodeSegment must never panic, must reject non-segments with
// ErrStore, and must report a valid-prefix length that (a) never exceeds
// the input and (b) survives a round trip — re-decoding the valid prefix
// yields exactly the same records.  This is the property the store's
// torn-tail recovery rests on: any crash- or corruption-shaped suffix is
// simply truncated away.

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

func FuzzCacheRecord(f *testing.F) {
	// Seed with an empty segment, one valid record, and assorted mutations.
	empty := []byte(segMagic)
	f.Add([]byte{})
	f.Add(empty)
	f.Add([]byte("CMPLJNL1")) // the retired journal format is not a cache segment

	rec := testRecord("seed-digest", 0)
	rec.Anchor = "seed-anchor"
	payload, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	one := appendFrame(append([]byte{}, empty...), payload)
	f.Add(one)
	f.Add(one[:len(one)-3])                                   // torn payload
	f.Add(append(append([]byte{}, one...), 0xff, 0xff, 0xff)) // garbage tail
	flipped := append([]byte{}, one...)
	flipped[len(flipped)-1] ^= 0x40 // CRC mismatch
	f.Add(flipped)
	notJSON := appendFrame(append([]byte{}, empty...), []byte("not json"))
	f.Add(notJSON)

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		valid, err := decodeSegment(data, func(rec Record, _ int64) {
			recs = append(recs, rec)
		})
		if err != nil {
			if !errors.Is(err, ErrStore) {
				t.Fatalf("decodeSegment error %v is not ErrStore", err)
			}
			return
		}
		if valid < len(segMagic) || valid > len(data) {
			t.Fatalf("valid prefix %d out of range for %d input bytes", valid, len(data))
		}
		if !bytes.HasPrefix(data, []byte(segMagic)) {
			t.Fatal("decodeSegment accepted data without the segment magic")
		}
		// Re-decoding the valid prefix must be stable: same length, same
		// records.
		var again []Record
		valid2, err := decodeSegment(data[:valid], func(rec Record, _ int64) {
			again = append(again, rec)
		})
		if err != nil || valid2 != valid {
			t.Fatalf("re-decode of valid prefix: len %d err %v, want %d nil", valid2, err, valid)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-decode yielded %d records, first pass %d", len(again), len(recs))
		}
	})
}
