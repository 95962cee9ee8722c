package resultcache

// Store tests: round-trips across reopen, anchor invalidation (the
// acceptance rule — a record stamped under a different golden anchor is
// never served), last-record-wins duplicates, LRU eviction under MaxBytes,
// atomic compaction (including a simulated crash mid-compaction), crash
// safety (torn tails at every offset, corrupt CRCs, durable heals and
// closes), and the ReuseFor adapter feeding the worker pool byte-identical
// results.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpleak/internal/core"
	"cmpleak/internal/experiment"
	"cmpleak/internal/sim"
)

// noCompact disables automatic compaction so tests control it explicitly.
const noCompact = -1

func testKey(i int) experiment.Key {
	return experiment.Key{Benchmark: "FMM", SizeMB: i + 1, Technique: "baseline"}
}

func testRecord(digest string, i int) Record {
	return Record{
		Cell:          "cell",
		OptionsDigest: digest,
		Key:           testKey(i),
		Result:        core.Result{Label: "r", Cycles: sim.Cycle(1000 + i), IPC: 1.5},
	}
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "anchorA", CompactMinBytes: noCompact})
	for i := 0; i < 4; i++ {
		if err := s.Put(testRecord("d1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if res, ok := s.Get("d1", testKey(2)); !ok || res.Cycles != 1002 {
		t.Fatalf("Get before close = (%v, %v), want cycles 1002", res.Cycles, ok)
	}
	if _, ok := s.Get("other-digest", testKey(2)); ok {
		t.Fatal("a different options digest must miss")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{Anchor: "anchorA", CompactMinBytes: noCompact})
	defer s.Close()
	if st := s.Stats(); st.Entries != 4 {
		t.Fatalf("reopened store holds %d entries, want 4", st.Entries)
	}
	for i := 0; i < 4; i++ {
		res, ok := s.Get("d1", testKey(i))
		if !ok || res.Cycles != sim.Cycle(1000+i) {
			t.Fatalf("key %d = (%v, %v), want cycles %d", i, res.Cycles, ok, 1000+i)
		}
	}
}

// TestStoreAppendsAfterReopen writes many records, reopens the store and
// appends one more: the reopened store continues after the existing
// records, and a further reopen serves every one of them.
func TestStoreAppendsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Anchor: "a", CompactMinBytes: noCompact}
	const n = 20
	s := mustOpen(t, dir, opt)
	for i := 0; i < n; i++ {
		if err := s.Put(testRecord("d1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, opt)
	if st := s.Stats(); st.Entries != n {
		t.Fatalf("reopen saw %d entries, want %d", st.Entries, n)
	}
	if err := s.Put(testRecord("d1", n)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, opt)
	defer s.Close()
	if st := s.Stats(); st.Entries != n+1 {
		t.Fatalf("after reopen + append: %d entries, want %d", st.Entries, n+1)
	}
	for i := 0; i <= n; i++ {
		if res, ok := s.Get("d1", testKey(i)); !ok || res.Cycles != sim.Cycle(1000+i) || res.Label != "r" {
			t.Fatalf("record %d = (%+v, %v), want cycles %d", i, res, ok, 1000+i)
		}
	}
}

func TestStoreNeverServesForeignAnchor(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "anchorA", CompactMinBytes: noCompact})
	if err := s.Put(testRecord("d1", 0)); err != nil {
		t.Fatal(err)
	}
	// A record explicitly stamped with a foreign anchor is rejected at Put.
	foreign := testRecord("d1", 1)
	foreign.Anchor = "anchorB"
	if err := s.Put(foreign); err == nil {
		t.Fatal("Put accepted a record stamped with a foreign anchor")
	}
	s.Close()

	// Reopening the directory under a different anchor serves nothing: the
	// on-disk record's anchor no longer matches.
	s = mustOpen(t, dir, Options{Anchor: "anchorB", CompactMinBytes: noCompact})
	if _, ok := s.Get("d1", testKey(0)); ok {
		t.Fatal("record recorded under anchorA was served under anchorB")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("foreign-anchor store indexes %d entries, want 0", st.Entries)
	}
	// Compaction drops the dead foreign record from disk for good.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = mustOpen(t, dir, Options{Anchor: "anchorA", CompactMinBytes: noCompact})
	defer s.Close()
	if _, ok := s.Get("d1", testKey(0)); ok {
		t.Fatal("compaction under anchorB must discard anchorA records; reopening under anchorA found one")
	}
}

func TestStoreLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	rec := testRecord("d1", 0)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	rec.Result.Cycles = 9999
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if res, _ := s.Get("d1", testKey(0)); res.Cycles != 9999 {
		t.Fatalf("duplicate Put: got cycles %d, want the later 9999", res.Cycles)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate key indexed %d entries, want 1", st.Entries)
	}
	s.Close()
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if res, _ := s.Get("d1", testKey(0)); res.Cycles != 9999 {
		t.Fatalf("reload of duplicate records: got cycles %d, want the later 9999", res.Cycles)
	}
}

func TestStoreEvictsLRUUnderMaxBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	// Measure one record's framed footprint, then bound the store to ~3.
	if err := s.Put(testRecord("d0", 0)); err != nil {
		t.Fatal(err)
	}
	recSize := s.Stats().LiveBytes
	s.Close()
	os.RemoveAll(dir)

	s = mustOpen(t, dir, Options{Anchor: "a", MaxBytes: 3 * recSize, CompactMinBytes: noCompact})
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put(testRecord("d1", i)); err != nil {
			t.Fatal(err)
		}
		// Touch key 0 so it stays hot and survives eviction.
		if i >= 1 {
			s.Get("d1", testKey(0))
		}
	}
	st := s.Stats()
	if st.Entries != 3 || st.Evictions != 2 {
		t.Fatalf("entries %d, evictions %d; want 3 live entries after 2 evictions", st.Entries, st.Evictions)
	}
	if _, ok := s.Get("d1", testKey(0)); !ok {
		t.Fatal("most-recently-used record was evicted")
	}
	if _, ok := s.Get("d1", testKey(1)); ok {
		t.Fatal("least-recently-used record survived eviction")
	}
}

func TestStoreCompactionReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	rec := testRecord("d1", 0)
	for i := 0; i < 10; i++ {
		rec.Result.Cycles = sim.Cycle(i)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(testRecord("d1", 1)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.TotalBytes <= before.LiveBytes {
		t.Fatalf("expected dead bytes before compaction: total %d, live %d", before.TotalBytes, before.LiveBytes)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Entries != 2 || after.Segments != 1 {
		t.Fatalf("after compaction: %d entries in %d segments, want 2 in 1", after.Entries, after.Segments)
	}
	if after.TotalBytes >= before.TotalBytes {
		t.Fatalf("compaction did not shrink the store: %d -> %d bytes", before.TotalBytes, after.TotalBytes)
	}
	// Appends continue on the compacted segment and everything survives a
	// reopen.
	if err := s.Put(testRecord("d1", 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if res, ok := s.Get("d1", testKey(0)); !ok || res.Cycles != 9 {
		t.Fatalf("compacted record = (%v, %v), want the last duplicate (cycles 9)", res.Cycles, ok)
	}
	for i := 1; i <= 2; i++ {
		if _, ok := s.Get("d1", testKey(i)); !ok {
			t.Fatalf("record %d lost across compaction + reopen", i)
		}
	}
}

func TestStoreAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	// CompactMinBytes 1: compact as soon as dead bytes outweigh live ones.
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: 1})
	rec := testRecord("d1", 0)
	for i := 0; i < 8; i++ {
		rec.Result.Cycles = sim.Cycle(i)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	defer s.Close()
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("8 duplicate puts never auto-compacted: %+v", st)
	}
	if res, ok := s.Get("d1", testKey(0)); !ok || res.Cycles != 7 {
		t.Fatalf("after auto-compaction: (%v, %v), want cycles 7", res.Cycles, ok)
	}
}

func TestStoreIgnoresInterruptedCompactionTmp(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	if err := s.Put(testRecord("d1", 0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-compaction: a half-written .tmp next to the
	// segments.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.tmp"), []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if _, ok := s.Get("d1", testKey(0)); !ok {
		t.Fatal("record lost to a leftover compaction tmp")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("leftover tmp files not cleaned: %v", tmps)
	}
}

func TestStoreTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	for i := 0; i < 3; i++ {
		if err := s.Put(testRecord("d1", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("torn tail: %d entries, want 2", st.Entries)
	}
	// Appending after the heal keeps the file a clean frame sequence.
	if err := s.Put(testRecord("d1", 3)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if st := s.Stats(); st.Entries != 3 {
		t.Fatalf("after heal + append: %d entries, want 3", st.Entries)
	}
}

func TestStoreRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("NOTACAS!whatever"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Anchor: "a"}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("Open on a foreign segment file: err = %v, want a magic error", err)
	}
}

// TestStoreLeavesRejectedFileUnchanged opens a directory whose segment is
// some other file format: Open must fail and leave that file exactly as it
// was — not truncated, not healed, not overwritten.
func TestStoreLeavesRejectedFileUnchanged(t *testing.T) {
	dir := t.TempDir()
	const foreign = "some other file format entirely"
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Anchor: "a"}); err == nil {
		t.Fatal("Open accepted a segment of another file format")
	}
	if data, _ := os.ReadFile(path); string(data) != foreign {
		t.Fatalf("Open modified the segment it rejected: %q", data)
	}
}

// segmentImage writes n records through a store and returns the segment's
// bytes and the end offset of each record within them.
func segmentImage(t *testing.T, n int) ([]byte, []int) {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	for i := 0; i < n; i++ {
		if err := s.Put(testRecord("d1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	end := len(segMagic)
	var ends []int
	if _, err := decodeSegment(img, func(_ Record, size int64) {
		end += int(size)
		ends = append(ends, end)
	}); err != nil {
		t.Fatal(err)
	}
	if len(ends) != n || end != len(img) {
		t.Fatalf("segment image holds %d records to byte %d, want %d to %d", len(ends), end, n, len(img))
	}
	return img, ends
}

// TestStoreHealsTornTailAtEveryOffset cuts a valid segment at every byte
// offset: reopening must index exactly the whole records before the cut,
// never fail or panic, and leave the file healed to that prefix.
func TestStoreHealsTornTailAtEveryOffset(t *testing.T) {
	img, ends := segmentImage(t, 3)
	// Durability is TestStoreTornTailHealIsSynced's concern; skipping the
	// thousands of fsyncs keeps this sweep over every offset fast.
	orig := fileSync
	fileSync = func(*os.File) error { return nil }
	defer func() { fileSync = orig }()
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	for cut := len(segMagic); cut <= len(img); cut++ {
		if err := os.WriteFile(path, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Anchor: "a", CompactMinBytes: noCompact})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		whole, healed := 0, len(segMagic)
		for _, e := range ends {
			if e <= cut {
				whole, healed = whole+1, e
			}
		}
		if st := s.Stats(); st.Entries != whole {
			t.Fatalf("cut at %d: %d entries, want the %d whole records", cut, st.Entries, whole)
		}
		for i := 0; i < whole; i++ {
			if res, ok := s.Get("d1", testKey(i)); !ok || res.Cycles != sim.Cycle(1000+i) {
				t.Fatalf("cut at %d: record %d = (%v, %v), not the expected prefix", cut, i, res.Cycles, ok)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if data, _ := os.ReadFile(path); !bytes.Equal(data, img[:healed]) {
			t.Fatalf("cut at %d: file left at %d bytes, want healed to the %d-byte prefix", cut, len(data), healed)
		}
	}
}

// TestStoreCorruptCRCDropsOnlyLastRecord flips one byte of the last
// record's CRC: reopening keeps every earlier record and drops that one.
func TestStoreCorruptCRCDropsOnlyLastRecord(t *testing.T) {
	img, ends := segmentImage(t, 3)
	lastStart := ends[len(ends)-2]
	img[lastStart+4] ^= 0x40 // first byte of the frame's CRC32
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("reopened past a corrupt CRC with %d entries, want 2", st.Entries)
	}
	if _, ok := s.Get("d1", testKey(2)); ok {
		t.Fatal("record with a corrupt CRC was served")
	}
}

// countSyncs routes the fileSync seam through a counter for the test.
func countSyncs(t *testing.T) *int {
	t.Helper()
	var n int
	orig := fileSync
	fileSync = func(f *os.File) error { n++; return orig(f) }
	t.Cleanup(func() { fileSync = orig })
	return &n
}

// TestStoreTornTailHealIsSynced pins the durability of the heal: Open
// fsyncs the active segment after truncating its torn tail, so a host crash
// cannot bring the torn bytes back in front of later appends.
func TestStoreTornTailHealIsSynced(t *testing.T) {
	img, _ := segmentImage(t, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	syncs := countSyncs(t)
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	s.Close()
	clean := *syncs

	if err := os.WriteFile(path, img[:len(img)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	*syncs = 0
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	s.Close()
	if *syncs != clean+1 {
		t.Fatalf("opening a torn segment synced %d time(s), a whole one %d; want exactly one more for the heal",
			*syncs, clean)
	}
}

// TestStoreCloseSyncsTail pins the durability of a clean close: up to
// syncEvery-1 records sit unsynced under the batched cadence, and Close
// must fsync that tail exactly once.
func TestStoreCloseSyncsTail(t *testing.T) {
	syncs := countSyncs(t)
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	// Creation syncs the fresh magic and the directory entry.
	created := *syncs
	if created < 2 {
		t.Fatalf("creating the store synced %d time(s); want the segment and its directory entry", created)
	}
	n := syncEvery - 1 // strictly inside one batch window
	for i := 0; i < n; i++ {
		if err := s.Put(testRecord("d1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if *syncs != created {
		t.Fatalf("%d puts inside the batch window triggered %d sync(s); want 0", n, *syncs-created)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if *syncs != created+1 {
		t.Fatalf("Close performed %d sync(s); want exactly 1 flushing the %d pending record(s)", *syncs-created, n)
	}
	s = mustOpen(t, dir, Options{Anchor: "a", CompactMinBytes: noCompact})
	defer s.Close()
	if st := s.Stats(); st.Entries != n {
		t.Fatalf("reopen found %d records, want %d", st.Entries, n)
	}
}

// TestReuseForFeedsPoolByteIdentical runs a tiny sweep cold (populating the
// store through the progress callback), then warm through ReuseFor, and
// asserts (a) zero jobs execute warm and (b) the merged sweep digests are
// identical.
func TestReuseForFeedsPoolByteIdentical(t *testing.T) {
	opts := experiment.DefaultOptions(0.005)
	opts.Benchmarks = []string{"FMM"}
	opts.CacheSizesMB = []int{1}
	opts.Seed = 7
	named := []experiment.NamedOptions{{Name: "cell", Options: opts}}
	digest := opts.Digest()

	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactMinBytes: noCompact}) // default anchor
	cold, err := experiment.RunParallelAllContext(context.Background(), named, experiment.Parallelism{
		Workers: 2,
		Progress: func(ev experiment.JobEvent) {
			if ev.Err != nil {
				return
			}
			if err := s.Put(Record{Cell: ev.Cell, OptionsDigest: digest, Key: ev.Key, Result: ev.Result}); err != nil {
				t.Errorf("Put: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{CompactMinBytes: noCompact})
	defer s.Close()
	ran := 0
	warm, err := experiment.RunParallelAllContext(context.Background(), named, experiment.Parallelism{
		Workers:  2,
		Reuse:    s.ReuseFor(named),
		Progress: func(experiment.JobEvent) { ran++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("warm run simulated %d jobs, want 0", ran)
	}
	if got, want := warm[0].Digest(), cold[0].Digest(); got != want {
		t.Fatalf("warm sweep digest %s != cold %s", got, want)
	}
	if st := s.Stats(); st.Hits != uint64(len(opts.Jobs())) {
		t.Fatalf("warm run hit %d times, want %d", st.Hits, len(opts.Jobs()))
	}
}

// TestReuseForRunsOnlyMissingJobs is resume: a store holding the first half
// of a sweep's jobs (an interrupted run) makes the rerun simulate exactly
// the missing half and assemble the uninterrupted run's digest.
func TestReuseForRunsOnlyMissingJobs(t *testing.T) {
	opts := experiment.DefaultOptions(0.005)
	opts.Benchmarks = []string{"FMM"}
	opts.CacheSizesMB = []int{1}
	opts.Seed = 7
	named := []experiment.NamedOptions{{Options: opts}}
	full, err := experiment.RunParallelAllContext(context.Background(), named, experiment.Parallelism{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, t.TempDir(), Options{CompactMinBytes: noCompact})
	defer s.Close()
	jobs := opts.Jobs()
	half := len(jobs) / 2
	for _, k := range jobs[:half] {
		res, _ := full[0].Result(k.Benchmark, k.SizeMB, k.Technique)
		if err := s.Put(Record{OptionsDigest: opts.Digest(), Key: k, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	ran := 0
	resumed, err := experiment.RunParallelAllContext(context.Background(), named, experiment.Parallelism{
		Workers:  2,
		Reuse:    s.ReuseFor(named),
		Progress: func(experiment.JobEvent) { ran++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(jobs) - half; ran != want {
		t.Fatalf("resumed run simulated %d jobs, want only the %d missing ones", ran, want)
	}
	if got, want := resumed[0].Digest(), full[0].Digest(); got != want {
		t.Fatalf("resumed digest %s != uninterrupted %s", got, want)
	}
}
