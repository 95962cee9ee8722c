package experiment

// The per-batch stream memo.  A job's reference streams depend only on the
// fields cfg.Workload() and Generator.Streams read — benchmark (or
// synthetic kernel), workload scale, core count and seed — not on the cache
// size or the technique, so the 32 jobs of one paper benchmark all replay
// the same streams.  Instead of regenerating them per job, the first worker
// to need a shared key records them once into an in-memory trace
// (trace.Capture, then trace.New and Verify), and every job of the key
// replays that trace through File.Generator.  Replay decodes an entry in a
// fraction of the time live generation spends producing it, and yields the
// identical entry sequence, so results are byte-identical.
//
// Lifetime: a key's trace is dropped when its last queued job finishes, so
// a batch holds roughly one trace per worker.  Keys with a single queued
// job, jobs served by Reuse, and seed-invariant benchmarks (recorded traces,
// already shared by trace.OpenShared) capture nothing; a key whose capture
// fails — a custom stream whose entries the trace format cannot hold — runs
// live, exactly as it would without the memo.

import (
	"bytes"
	"sync"

	"cmpleak/internal/config"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// streamKey is everything a job's reference streams depend on.
type streamKey struct {
	benchmark    string
	synthetic    workload.SyntheticConfig
	hasSynthetic bool
	scale        float64
	cores        int
	seed         uint64
}

// streamKeyOf returns cfg's stream key.
func streamKeyOf(cfg config.System) streamKey {
	k := streamKey{benchmark: cfg.Benchmark, scale: cfg.WorkloadScale, cores: cfg.Cores, seed: cfg.Seed}
	if cfg.Synthetic != nil {
		k.synthetic, k.hasSynthetic = *cfg.Synthetic, true
	}
	return k
}

// sharedStreams is one stream key's memo within a batch.  The first
// generator call captures; the pool decrements pending under its mutex as
// each of the key's jobs finishes and drops the trace at zero.  Jobs a
// failing or canceled batch skips never decrement, so such a batch holds
// its traces until it returns.
type sharedStreams struct {
	once    sync.Once
	file    *trace.File // nil when capture was skipped or failed, and after the last job
	pending int         // queued jobs of the key not yet finished
}

// generator returns the generator a job of s's key runs over: a replay of
// the captured trace, or nil (run live) when s is nil or capture did not
// produce one.  Concurrent callers wait for the one capture.
func (s *sharedStreams) generator(cfg config.System) workload.Generator {
	if s == nil {
		return nil
	}
	s.once.Do(func() { s.file = captureShared(cfg) })
	if s.file == nil {
		return nil
	}
	return s.file.Generator()
}

// release records that one of the key's jobs is finished; the last one
// drops the trace.  The caller holds the pool's mutex.
func (s *sharedStreams) release() {
	if s == nil {
		return
	}
	if s.pending--; s.pending == 0 {
		s.file = nil
	}
}

// captureShared captures cfg's streams for sharing, or returns nil when the
// key should run live: its workload does not resolve (the job reports that
// itself), it is seed-invariant, or capture fails or panics.
func captureShared(cfg config.System) (f *trace.File) {
	defer func() {
		if recover() != nil {
			f = nil // the job's own live run reproduces the panic inside its guard
		}
	}()
	gen, err := cfg.Workload()
	if err != nil || workload.IsSeedInvariant(gen) {
		return nil
	}
	f, err = captureStreams(gen, cfg)
	if err != nil {
		return nil
	}
	return f
}

// captureStreams records gen's streams for cfg's cores and seed into a
// verified in-memory trace; a variable so tests can count
// and fail captures.
var captureStreams = func(gen workload.Generator, cfg config.System) (*trace.File, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Cores:     cfg.Cores,
		LineBytes: cfg.L2.LineBytes,
		Seed:      cfg.Seed,
		Scale:     cfg.WorkloadScale,
		Benchmark: gen.Name(),
	}, trace.WriterOptions{})
	if err != nil {
		return nil, err
	}
	if _, err := trace.Capture(gen, cfg.Cores, cfg.Seed, w, trace.CaptureOptions{}); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	f, err := trace.New(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := f.Verify(); err != nil {
		return nil, err
	}
	return f, nil
}

// shareStreams groups the batch's queued jobs by stream key and returns,
// per job, its key's memo — nil for a key only that job uses.
func shareStreams(cfgs []config.System) []*sharedStreams {
	byKey := make(map[streamKey]*sharedStreams)
	out := make([]*sharedStreams, len(cfgs))
	for i := range cfgs {
		k := streamKeyOf(cfgs[i])
		s := byKey[k]
		if s == nil {
			s = &sharedStreams{}
			byKey[k] = s
		}
		s.pending++
		out[i] = s
	}
	for i, s := range out {
		if s.pending < 2 {
			out[i] = nil
		}
	}
	return out
}
