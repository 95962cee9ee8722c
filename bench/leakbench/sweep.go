package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/experiment"
	"cmpleak/internal/resultcache"
	"cmpleak/internal/scenario"
	"cmpleak/internal/workload"
)

// paperScenario reads scenarios/paper.json, the paper's 192-job matrix, and
// returns it as the JSON body a leakserved client would send, with the
// workload scale, the seed and (when benchmarks is non-nil) the benchmark
// list replaced.
func paperScenario(root string, scale float64, seed uint64, benchmarks []string) ([]byte, error) {
	f, err := scenario.Load(filepath.Join(root, "scenarios", "paper.json"))
	if err != nil {
		return nil, err
	}
	f.Scale = scale
	f.Seeds = []uint64{seed}
	if benchmarks != nil {
		f.Benchmarks = benchmarks
	}
	return json.Marshal(f)
}

// expand is what a sweep client does before running: scenario.Parse, then
// File.Expand into the pool's batch input.
func expand(body []byte) ([]experiment.NamedOptions, error) {
	f, err := scenario.Parse(body)
	if err != nil {
		return nil, err
	}
	cells, err := f.Expand(config.Default())
	if err != nil {
		return nil, err
	}
	return scenario.NamedOptions(cells), nil
}

// sweepDigest joins the cells' Sweep.Digest values.
func sweepDigest(sweeps []*experiment.Sweep) string {
	ds := make([]string, len(sweeps))
	for i, s := range sweeps {
		ds[i] = s.Digest()
	}
	return strings.Join(ds, ",")
}

// eachResult calls fn for every job result of the cells.
func eachResult(sweeps []*experiment.Sweep, fn func(core.Result)) {
	for _, s := range sweeps {
		for _, k := range s.Keys() {
			res, _ := s.Result(k.Benchmark, k.SizeMB, k.Technique)
			fn(res)
		}
	}
}

// resultCycles sums the simulated cycles of every job of the cells.
func resultCycles(sweeps []*experiment.Sweep) float64 {
	c := 0.0
	eachResult(sweeps, func(r core.Result) { c += float64(r.Cycles) })
	return c
}

// sweep is sweep-cold: the paper matrix generated live through the pool
// (sweepWorkers workers), writing every result into a fresh, empty result
// cache.
type sweep struct {
	cfg     runConfig
	body    []byte
	named   []experiment.NamedOptions
	digests []string // Options.Digest per cell
	jobs    int

	reps   int
	digest string // the first op's sweep digest, which every op must equal
	last   []*experiment.Sweep
	cycles float64

	// Traced-pass samples.
	jobMs, putUs, getUs, openMs, busy, idleMs []float64
	hits, lookups                             uint64
	liveKB                                    float64
}

func newSweep(cfg runConfig) *sweep { return &sweep{cfg: cfg} }

// setup loads the scenario and expands it.
func (s *sweep) setup() error {
	body, err := paperScenario(s.cfg.root, s.cfg.sizes.sweepScale, s.cfg.seed, s.cfg.sizes.sweepBenchmarks)
	if err != nil {
		return err
	}
	named, err := expand(body)
	if err != nil {
		return err
	}
	s.body, s.named = body, named
	s.digests = make([]string, len(named))
	s.jobs = 0
	for i := range named {
		s.digests[i] = named[i].Options.Digest()
		s.jobs += len(named[i].Options.Jobs())
	}
	return nil
}

func (s *sweep) storeDir(rep int) string {
	return filepath.Join(s.cfg.work, fmt.Sprintf("sweep-cache-%d", rep))
}

// rep runs the whole matrix into a new empty store: resultcache.Open,
// experiment.RunParallelAllContext with the store's Reuse hook and a
// Progress hook that Puts every result, then Store.Close.  Its digest must
// equal the first sweep's.
func (s *sweep) rep(ph *phase, _ time.Time, _ int, tr *tracer) error {
	s.reps++
	sweeps, wall, err := s.runOnce(s.storeDir(s.reps), tr)
	if err != nil {
		return err
	}
	if s.reps > 1 {
		os.RemoveAll(s.storeDir(s.reps - 1)) // only the last store is kept, for verify
	}
	s.last = sweeps
	d := sweepDigest(sweeps)
	if s.digest == "" {
		s.digest = d
		s.cycles = resultCycles(sweeps)
	} else if d != s.digest {
		ph.fail(fmt.Errorf("sweep %d: digest %s differs from the first sweep's %s", ph.ops()+1, d, s.digest))
	}
	ph.lat = append(ph.lat, ms(wall))
	ph.reps = append(ph.reps, rep{ops: 1, wall: wall, cycles: s.cycles})
	return nil
}

// runOnce is one cold sweep into the store at dir.
func (s *sweep) runOnce(dir string, tr *tracer) ([]*experiment.Sweep, time.Duration, error) {
	start := time.Now()
	root := tr.begin("sweep", 0)
	sp := tr.begin("resultcache.Open", root)
	store, err := resultcache.Open(dir, resultcache.Options{})
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	opened := time.Now()
	reuse := store.ReuseFor(s.named)
	pool := tr.begin("experiment.RunParallelAllContext", root)
	var (
		putErr error
		jobSum time.Duration
	)
	p := experiment.Parallelism{
		Workers: sweepWorkers,
		Reuse: func(cell string, key experiment.Key) (core.Result, bool) {
			if tr == nil {
				return reuse(cell, key)
			}
			t := time.Now()
			res, ok := reuse(cell, key)
			s.getUs = append(s.getUs, us(time.Since(t)))
			return res, ok
		},
		// Progress runs serialised in the pool's collector, so the traced
		// samples need no lock.
		Progress: func(ev experiment.JobEvent) {
			if ev.Err != nil {
				return
			}
			t := time.Now()
			tr.add("job", pool, t.Add(-ev.Elapsed), t)
			sp := tr.begin("resultcache.Put", pool)
			err := store.Put(resultcache.Record{
				Cell: ev.Cell, OptionsDigest: s.digests[ev.Sweep], Key: ev.Key, Result: ev.Result,
			})
			tr.end(sp)
			if err != nil && putErr == nil {
				putErr = err
			}
			if tr != nil {
				jobSum += ev.Elapsed
				s.jobMs = append(s.jobMs, ms(ev.Elapsed))
				s.putUs = append(s.putUs, us(time.Since(t)))
			}
		},
	}
	sweeps, err := experiment.RunParallelAllContext(context.Background(), s.named, p)
	tr.end(pool)
	poolEnd := time.Now()
	st := store.Stats()
	cerr := store.Close()
	wall := time.Since(start)
	tr.end(root)
	if err == nil {
		err = putErr
	}
	if err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		s.openMs = append(s.openMs, ms(opened.Sub(start)))
		poolWall := poolEnd.Sub(opened)
		s.busy = append(s.busy, ratio(float64(jobSum), float64(sweepWorkers)*float64(poolWall)))
		s.idleMs = append(s.idleMs, ms(tr.selfTime(pool)))
		s.hits += st.Hits
		s.lookups += st.Hits + st.Misses
		s.liveKB = float64(st.LiveBytes) / 1024
	}
	return sweeps, wall, nil
}

// verify reopens the last op's store and runs the matrix again with its
// Reuse hook: every job must come from the cache, nothing may simulate, and
// the digest must be the cold one.
func (s *sweep) verify() (int, []error) {
	store, err := resultcache.Open(s.storeDir(s.reps), resultcache.Options{})
	if err != nil {
		return 1, []error{err}
	}
	defer store.Close()
	simulated := 0
	sweeps, err := experiment.RunParallelAllContext(context.Background(), s.named, experiment.Parallelism{
		Workers:  sweepWorkers,
		Reuse:    store.ReuseFor(s.named),
		Progress: func(experiment.JobEvent) { simulated++ },
	})
	switch {
	case err != nil:
		return 1, []error{fmt.Errorf("warm rerun: %w", err)}
	case simulated != 0:
		return 1, []error{fmt.Errorf("warm rerun simulated %d of %d jobs", simulated, s.jobs)}
	case sweepDigest(sweeps) != s.digest:
		return 1, []error{fmt.Errorf("warm rerun digest %s differs from the cold %s", sweepDigest(sweeps), s.digest)}
	}
	return 1, nil
}

// layers adds the pool, cache and per-job counts of the traced pass, and
// times the client-side calls a sweep makes once: Parse plus Expand, an
// options digest, report rendering and live generation.
func (s *sweep) layers(m metrics, tr *tracer) error {
	eachResult(s.last, func(r core.Result) { addResultCounts(m, r) })
	m["experiment.job_p50_ms"] = median(s.jobMs)
	m["experiment.job_p90_ms"] = percentile(s.jobMs, 90)
	m["experiment.pool_busy_frac"] = median(s.busy)
	m["experiment.pool_idle_ms"] = median(s.idleMs)
	m["resultcache.put_us_p50"] = median(s.putUs)
	m["resultcache.put_us_p90"] = percentile(s.putUs, 90)
	m["resultcache.get_us_p50"] = median(s.getUs)
	m["resultcache.open_ms"] = median(s.openMs)
	m["resultcache.hit_frac"] = ratio(float64(s.hits), float64(s.lookups))
	m["resultcache.live_kb"] = s.liveKB
	if err := clientCalls(m, tr, s.body, s.last[0]); err != nil {
		return err
	}

	// Live generation of every benchmark of the matrix at its scale and seed.
	o := s.named[0].Options
	var streams []workload.Stream
	for _, b := range o.Benchmarks {
		gen, err := workload.ByName(b, o.Scale)
		if err != nil {
			return err
		}
		streams = append(streams, gen.Streams(o.Base.Cores, o.Seed)...)
	}
	ns, err := drainNs(tr, "workload.NextBatch", streams)
	if err != nil {
		return err
	}
	m["workload.gen_ns_per_entry"] = ns
	return nil
}

// clientCalls times the calls every sweep client makes around the pool:
// scenario.Parse plus File.Expand, Options.Digest of one cell and
// experiment.WriteReport of the full report, each the median of several.
func clientCalls(m metrics, tr *tracer, body []byte, sw *experiment.Sweep) error {
	var parse, digest, report []float64
	for range 5 {
		start := time.Now()
		sp := tr.begin("scenario.Parse+Expand", 0)
		named, err := expand(body)
		tr.end(sp)
		if err != nil {
			return err
		}
		parse = append(parse, ms(time.Since(start)))

		start = time.Now()
		sp = tr.begin("Options.Digest", 0)
		named[0].Options.Digest()
		tr.end(sp)
		digest = append(digest, us(time.Since(start)))

		start = time.Now()
		sp = tr.begin("experiment.WriteReport", 0)
		err = experiment.WriteReport(io.Discard, sw, "", false)
		tr.end(sp)
		if err != nil {
			return err
		}
		report = append(report, ms(time.Since(start)))
	}
	m["scenario.parse_expand_ms"] = median(parse)
	m["experiment.options_digest_us"] = median(digest)
	m["experiment.report_ms"] = median(report)
	return nil
}

func (s *sweep) close() {}
