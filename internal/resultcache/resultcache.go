// Package resultcache is the shared, persistent, content-addressed result
// store: the one place a completed job's result is persisted, outliving
// runs, processes and clients.  A sweep interrupted under `leaksweep -cache`
// resumes by rerunning the same command: every job already in the store is
// served from it without simulating.
//
// Every simulated cell result is stored under the pair
//
//	(Options.Digest(), job Key)
//
// — the options digest covers everything that determines the result (full
// base system, axes, scale, seed), so two runs that would simulate the same
// job bit-identically share one record, whatever scenario file, cell name,
// shard slice or client produced it.  That is also how a sharded sweep is
// joined: each `leaksweep -shard i/n -cache DIRi` fills its own store, and
// `leaksweep -merge 'DIR*'` serves the unsharded sweep from the union of
// those stores (Merge) without simulating.  Each record is additionally
// stamped with the code/golden anchor (experiment.GoldenAnchor) it was
// simulated under; a store opened under a different anchor never serves it,
// so a model change that legitimately alters results — which re-records the
// golden digest — invalidates every cached result at once instead of
// serving stale bits.
//
// # On-disk layout
//
// A store is a directory of append-only segment files, seg-NNNNNNNN.cas,
// each a "CMPLCAS1" magic followed by length-prefixed, CRC-checked frames
// (frame.go) whose payloads are JSON Records.  Appends go to the
// highest-numbered segment, one write per record with batched fsync: a kill
// loses at most the record in flight, and a torn tail is truncated
// (durably) on open.  Within and across segments, the last record for a key
// wins, so compaction can leave duplicates behind without ambiguity.
//
// # Eviction and compaction
//
// The in-memory index holds every live record (O(1) hit lookup) in LRU
// order.  Options.MaxBytes bounds the live framed bytes: a Put that would
// exceed it evicts least-recently-used records first.  Evicted and
// superseded records become dead bytes on disk; when dead bytes outweigh
// live ones and exceed a 64 KiB floor, a Put compacts the store: live
// records are rewritten, oldest-LRU first, into a fresh segment that is
// fsynced and atomically renamed into place before the old segments are
// removed.  A crash anywhere in compaction is safe — an unrenamed .tmp is
// ignored on open, and un-deleted old segments merely hold duplicates the
// last-record-wins rule resolves.
//
// The store is safe for concurrent use within one process.  It is not a
// multi-process store: two processes appending to one directory will
// interleave writes into the same segment.  Run one leakserved per cache
// directory, or point CLI runs at their own directory and let the digest
// keying deduplicate when a daemon later adopts it.
package resultcache

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"

	"cmpleak/internal/core"
	"cmpleak/internal/experiment"
)

// segMagic opens every segment file; the trailing digit is the format
// version, bumped on incompatible layout changes.
const segMagic = "CMPLCAS1"

// maxPayload bounds one record's payload, so a corrupt length frame cannot
// stage an absurd buffer.
const maxPayload = 1 << 24

// syncEvery batches fsync on the append path; Sync and Close flush
// unconditionally.
const syncEvery = 8

// ErrStore reports a directory or segment that cannot be used as a store at
// all (not a directory, segment with a foreign magic).  Torn or corrupt
// segment tails are not errors — they are truncated away.
var ErrStore = errors.New("resultcache: invalid store")

// ErrMerge reports a set of stores Merge cannot join into the
// batch's results: the glob matches nothing, a job is held by no store, or
// two stores hold different results for one job.
var ErrMerge = errors.New("resultcache: merge")

// Record is one cached cell result.
type Record struct {
	// Anchor is the golden anchor the result was simulated under; records
	// whose anchor differs from the store's are never served.
	Anchor string `json:"anchor"`
	// Cell is the sweep label the result was first recorded under.  It is
	// informational: lookups key on (OptionsDigest, Key), so the same
	// options hit whatever the client named its cell.
	Cell string `json:"cell,omitempty"`
	// OptionsDigest identifies the exact experiment.Options the job ran
	// under (Options.Digest).
	OptionsDigest string `json:"options_digest"`
	// Key identifies the job within its sweep.
	Key experiment.Key `json:"key"`
	// Result is the job's full result.
	Result core.Result `json:"result"`
}

// Options configures a store.
type Options struct {
	// Anchor is the golden anchor this store serves; empty means
	// experiment.GoldenAnchor.  Records stamped with any other anchor are
	// treated as dead: never indexed, removed at the next compaction.
	Anchor string
	// MaxBytes bounds the live (indexed) framed bytes; 0 means unbounded.
	// Eviction is LRU.
	MaxBytes int64
}

// compactMinBytes is the dead-byte floor below which the store never
// compacts (compaction rewrites every live record, so tiny stores should
// not churn).  It is a variable only so tests can lower it.
var compactMinBytes int64 = 64 << 10

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Entries is the number of live records; LiveBytes their framed size.
	Entries   int
	LiveBytes int64
	// TotalBytes is the on-disk size of all segments, dead bytes included.
	TotalBytes int64
	// Segments is the number of segment files.
	Segments int
	// Hits / Misses count Get outcomes since Open; Puts counts appended
	// records, Evictions records dropped by the MaxBytes bound, and
	// Compactions completed rewrites.
	Hits        uint64
	Misses      uint64
	Puts        uint64
	Evictions   uint64
	Compactions uint64
}

// ckey is the index key: content address = digest of the options plus the
// job key within them.
type ckey struct {
	digest string
	key    experiment.Key
}

// entry is one live record plus its LRU position and on-disk footprint.
type entry struct {
	rec  Record
	size int64 // framed size on disk
	elem *list.Element
}

// Store is an open result cache.
type Store struct {
	mu     sync.Mutex
	dir    string
	opt    Options
	active *os.File
	seg    int // active segment number
	index  map[ckey]*entry
	lru    *list.List // of ckey; front = least recently used
	live   int64
	total  int64
	nsegs  int
	pend   int
	stats  Stats
}

// fileSync is the durability seam: every fsync goes through it, so the
// tests can count sync points.
var fileSync = (*os.File).Sync

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := fileSync(d)
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func segName(n int) string { return fmt.Sprintf("seg-%08d.cas", n) }

// segments lists the store's segment files in ascending segment order.
func segments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.cas", &n); err == nil && e.Name() == segName(n) {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// decodeSegment walks one segment image, calling fn for each whole valid
// record, and returns the byte length of the valid prefix.  A missing or
// foreign magic is an error — that file is not a segment.
func decodeSegment(data []byte, fn func(rec Record, framedSize int64)) (int, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("%w: missing %q magic", ErrStore, segMagic)
	}
	valid := walkFrames(data[len(segMagic):], func(payload []byte) bool {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return false // CRC-valid but undecodable: start of garbage
		}
		fn(rec, int64(frameSize(len(payload))))
		return true
	})
	return len(segMagic) + valid, nil
}

// Open opens (creating if needed) the store in dir.  Every segment is
// loaded into the in-memory index — later records win over earlier ones for
// the same (digest, key) — records under a foreign anchor are skipped, and
// a torn tail on the active segment is truncated away, and synced, before
// appends resume.  Leftover .tmp files from an interrupted compaction are removed.
func Open(dir string, opt Options) (*Store, error) {
	if opt.Anchor == "" {
		opt.Anchor = experiment.GoldenAnchor
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	// An interrupted compaction can leave a .tmp behind; it was never
	// renamed, so it holds nothing the segments do not.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "seg-*.tmp")); len(tmps) > 0 {
		for _, p := range tmps {
			os.Remove(p)
		}
	}

	s := &Store{
		dir:   dir,
		opt:   opt,
		index: make(map[ckey]*entry),
		lru:   list.New(),
	}
	for _, n := range segs {
		path := filepath.Join(dir, segName(n))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		valid, err := decodeSegment(data, func(rec Record, size int64) {
			s.total += size
			s.load(rec, size)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s.total += int64(len(segMagic))
		if valid < len(data) && n == segs[len(segs)-1] {
			// Heal the active segment's torn tail so appends land after the
			// last whole record, and make the heal durable: a host crash
			// after later appends but before their batched sync must not
			// resurrect the torn bytes in front of them.
			if err := truncateSync(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("%s: truncating torn tail: %w", path, err)
			}
		}
		s.nsegs++
	}
	active := 1
	if len(segs) > 0 {
		active = segs[len(segs)-1]
	}
	if err := s.openActive(active, len(segs) == 0); err != nil {
		return nil, err
	}
	// The MaxBytes bound applies to reloaded state too: a store reopened
	// under a smaller budget trims itself immediately.
	s.evictOver()
	return s, nil
}

// truncateSync cuts the file at path to size and fsyncs the cut.
func truncateSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = fileSync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// load installs one reloaded record (replay of the append path without the
// writes): foreign anchors stay dead, later duplicates supersede earlier
// ones, and LRU order ends up oldest-first in read order.
func (s *Store) load(rec Record, size int64) {
	if rec.Anchor != s.opt.Anchor {
		return
	}
	k := ckey{digest: rec.OptionsDigest, key: rec.Key}
	if old, ok := s.index[k]; ok {
		s.live -= old.size
		s.lru.Remove(old.elem)
	}
	e := &entry{rec: rec, size: size}
	e.elem = s.lru.PushBack(k)
	s.index[k] = e
	s.live += size
}

// openActive opens (creating if fresh) the append handle of segment n.
func (s *Store) openActive(n int, fresh bool) error {
	path := filepath.Join(s.dir, segName(n))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if fresh {
		if _, err := f.WriteString(segMagic); err != nil {
			f.Close()
			return err
		}
		if err := fileSync(f); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(s.dir); err != nil {
			f.Close()
			return err
		}
		s.total += int64(len(segMagic))
		s.nsegs++
	}
	s.active = f
	s.seg = n
	return nil
}

// Get returns the cached result for (digest, key) and marks it most
// recently used.
func (s *Store) Get(digest string, key experiment.Key) (core.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[ckey{digest: digest, key: key}]
	if !ok {
		s.stats.Misses++
		return core.Result{}, false
	}
	s.stats.Hits++
	s.lru.MoveToBack(e.elem)
	return e.rec.Result, true
}

// Put appends one record.  An empty Anchor is stamped with the store's; a
// record under a foreign anchor is rejected — writing bytes the store could
// never serve is a caller bug, not a cache policy.
func (s *Store) Put(rec Record) error {
	if rec.Anchor == "" {
		rec.Anchor = s.opt.Anchor
	}
	if rec.Anchor != s.opt.Anchor {
		return fmt.Errorf("resultcache: record anchor %.8s does not match the store's %.8s", rec.Anchor, s.opt.Anchor)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resultcache: encoding record: %w", err)
	}
	buf := appendFrame(nil, payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return fmt.Errorf("resultcache: store is closed or merged")
	}
	if _, err := s.active.Write(buf); err != nil {
		return fmt.Errorf("resultcache: append: %w", err)
	}
	s.total += int64(len(buf))
	s.stats.Puts++
	s.load(rec, int64(len(buf)))
	s.pend++
	if s.pend >= syncEvery {
		s.pend = 0
		if err := fileSync(s.active); err != nil {
			return fmt.Errorf("resultcache: sync: %w", err)
		}
	}
	s.evictOver()
	return s.maybeCompactLocked()
}

// evictOver drops least-recently-used entries until live bytes fit
// MaxBytes.  Dropped records stay on disk as dead bytes until compaction.
func (s *Store) evictOver() {
	if s.opt.MaxBytes <= 0 {
		return
	}
	for s.live > s.opt.MaxBytes {
		front := s.lru.Front()
		if front == nil {
			return
		}
		k := front.Value.(ckey)
		e := s.index[k]
		s.lru.Remove(front)
		delete(s.index, k)
		s.live -= e.size
		s.stats.Evictions++
	}
}

// maybeCompactLocked compacts when dead bytes outweigh live ones and exceed
// compactMinBytes.
func (s *Store) maybeCompactLocked() error {
	dead := s.total - s.live - int64(s.nsegs*len(segMagic))
	if dead <= compactMinBytes || dead <= s.live {
		return nil
	}
	return s.compactLocked()
}

// compact rewrites the live records into a fresh segment and removes the
// old ones, reclaiming dead bytes.  The rewrite is atomic: the new segment
// is fully written and fsynced under a .tmp name, renamed into place, and
// only then are the old segments unlinked.
func (s *Store) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return fmt.Errorf("resultcache: store is closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	next := s.seg + 1
	tmp := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.tmp", next))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	buf := []byte(segMagic)
	// Oldest-LRU first, so a reload of the compacted segment rebuilds the
	// same recency order Open's read-order replay produces.
	for el := s.lru.Front(); el != nil; el = el.Next() {
		e := s.index[el.Value.(ckey)]
		payload, err := json.Marshal(e.rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("resultcache: compacting: %w", err)
		}
		buf = appendFrame(buf, payload)
		e.size = int64(frameSize(len(payload)))
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("resultcache: compacting: %w", err)
	}
	if err := fileSync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("resultcache: compacting: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, segName(next))); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// The new segment is durable; retire the old ones.  From here on a
	// crash costs nothing: un-deleted segments only hold records the new
	// one supersedes.
	olds, err := segments(s.dir)
	if err != nil {
		return err
	}
	s.active.Close()
	for _, n := range olds {
		if n != next {
			os.Remove(filepath.Join(s.dir, segName(n)))
		}
	}
	var live int64
	for _, e := range s.index {
		live += e.size
	}
	s.live = live
	s.total = live + int64(len(segMagic))
	s.nsegs = 1
	s.pend = 0
	s.stats.Compactions++
	return s.openActive(next, false)
}

// ReuseFor adapts the store to experiment.Parallelism.Reuse for the given
// batch: cell names map to their options digests once, and every hit is
// served straight from the index.  Hits are counted in the store's stats
// (and excluded from the pool's Done/Total by the pool itself).
func (s *Store) ReuseFor(cells []experiment.NamedOptions) func(cell string, key experiment.Key) (core.Result, bool) {
	digests := make(map[string]string, len(cells))
	for i := range cells {
		digests[cells[i].Name] = cells[i].Options.Digest()
	}
	return func(cell string, key experiment.Key) (core.Result, bool) {
		d, ok := digests[cell]
		if !ok {
			return core.Result{}, false
		}
		return s.Get(d, key)
	}
}

// Merge joins the stores in every directory matching glob — the -cache
// directories of `leaksweep -shard i/n` runs — into an in-memory store
// holding exactly the batch's results, whose ReuseFor serves every job of
// the batch, so the pool simulates nothing.  It refuses, with ErrMerge, a
// union that does not cover some job or that holds two different results
// for one (digest, key); stores may overlap, because a re-run shard writes
// the same content address.  A matched path that is not a directory holding
// at least one segment is refused with ErrStore before it is opened, so a
// stray directory is never written into.  The matched stores are
// closed before Merge returns; the merged store has no files, and Put on it
// fails.
func Merge(glob string, cells []experiment.NamedOptions) (*Store, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, fmt.Errorf("%w: invalid glob %q: %v", ErrMerge, glob, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: glob %q matches no cache directories", ErrMerge, glob)
	}
	stores := make([]*Store, 0, len(paths))
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	for _, path := range paths {
		if segs, err := segments(path); err != nil || len(segs) == 0 {
			return nil, fmt.Errorf("%w: %s is not a result cache directory (no seg-*.cas segments)", ErrStore, path)
		}
		s, err := Open(path, Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		stores = append(stores, s)
	}

	// The union is an in-memory store holding exactly the batch's jobs.
	union := &Store{opt: Options{Anchor: experiment.GoldenAnchor}, index: make(map[ckey]*entry), lru: list.New()}
	for _, cell := range cells {
		d := cell.Options.Digest()
		for _, key := range cell.Options.Jobs() {
			var held *entry
			from := ""
			for i, s := range stores {
				e, ok := s.index[ckey{digest: d, key: key}]
				switch {
				case !ok:
				case held == nil:
					held, from = e, paths[i]
				case !reflect.DeepEqual(e.rec.Result, held.rec.Result):
					return nil, fmt.Errorf("%w: %s and %s hold different results for %s",
						ErrMerge, from, paths[i], jobLabel(cell.Name, key))
				}
			}
			if held == nil {
				return nil, fmt.Errorf("%w: no store matching %q holds %s", ErrMerge, glob, jobLabel(cell.Name, key))
			}
			union.load(held.rec, 0)
		}
	}
	return union, nil
}

// jobLabel names one job of a batch as leaksweep's progress line does:
// "cell key", or just the key in an unnamed cell.
func jobLabel(cell string, key experiment.Key) string {
	if cell == "" {
		return key.String()
	}
	return cell + " " + key.String()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.LiveBytes = s.live
	st.TotalBytes = s.total
	st.Segments = s.nsegs
	return st
}

// Sync flushes pending appends to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	s.pend = 0
	return fileSync(s.active)
}

// Close syncs the tail unconditionally (the batched cadence can leave up to
// syncEvery-1 records pending) and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	s.pend = 0
	serr := fileSync(s.active)
	cerr := s.active.Close()
	s.active = nil
	if serr != nil {
		return serr
	}
	return cerr
}
