package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// replayBenchmark is the benchmark replay-* record and replay: WATER-NS is
// the ROADMAP's calibration workload.
const replayBenchmark = "WATER-NS"

const replayCores = 4

// replay is replay-baseline and replay-decay: a WATER-NS trace recorded in
// set-up and replayed through the full simulator, timing core.NewSystem plus
// System.Run.
type replay struct {
	cfg       runConfig
	technique string
	l2MB      int

	path    string        // the trace the timed phases replay
	sys     config.System // the replay's configuration
	setups  int
	first   []byte // the first op's normalised Result, which every op must equal
	layersM metrics
	newSys  []float64 // core.NewSystem wall times of the traced pass, ms
}

func newReplay(cfg runConfig, technique string, l2MB int) *replay {
	return &replay{cfg: cfg, technique: technique, l2MB: l2MB}
}

// setup records the trace with trace.Capture into a new file and opens it
// with trace.OpenShared, which verifies every chunk.  Each repetition writes
// its own file, since OpenShared opens a path only once per process.
func (r *replay) setup() error {
	r.setups++
	path := filepath.Join(r.cfg.work, fmt.Sprintf("%s-%d.trc", r.cfg.workload, r.setups))
	gen, err := workload.ByName(replayBenchmark, r.cfg.sizes.replayScale)
	if err != nil {
		return err
	}
	w, closeTrace, err := trace.Create(path, trace.Header{
		Cores: replayCores, LineBytes: 64, Seed: r.cfg.seed,
		Scale: r.cfg.sizes.replayScale, Benchmark: gen.Name(),
	}, trace.WriterOptions{})
	if err != nil {
		return err
	}
	_, err = trace.Capture(gen, replayCores, r.cfg.seed, w, trace.CaptureOptions{})
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("recording %s: %w", path, err)
	}
	if _, err := trace.OpenShared(path); err != nil {
		return err
	}
	spec, err := decay.ParseSpec(r.technique)
	if err != nil {
		return err
	}
	r.path = path
	r.sys = config.Default().WithBenchmark("trace:" + path).WithTechnique(spec).WithTotalL2MB(r.l2MB)
	return nil
}

// rep replays the trace once.  Its Result must equal the first replay's
// byte for byte.
func (r *replay) rep(ph *phase, _ time.Time, _ int, tr *tracer) error {
	start := time.Now()
	root := tr.begin("replay", 0)
	sp := tr.begin("core.NewSystem", root)
	s, err := core.NewSystem(r.sys)
	tr.end(sp)
	if err != nil {
		return err
	}
	built := time.Now()
	sp = tr.begin("System.Run", root)
	res, err := s.Run()
	tr.end(sp)
	tr.end(root)
	wall := time.Since(start)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	ph.lat = append(ph.lat, ms(wall))
	ph.reps = append(ph.reps, rep{ops: 1, wall: wall, cycles: float64(res.Cycles)})

	b, err := normalisedResult(res)
	if err != nil {
		return err
	}
	switch {
	case r.first == nil:
		r.first = b
	case !bytes.Equal(b, r.first):
		ph.fail(fmt.Errorf("replay %d: Result differs from the first replay's", ph.ops()))
	}
	if tr != nil {
		r.newSys = append(r.newSys, ms(built.Sub(start)))
		if r.layersM == nil {
			r.layersM = systemCounts(s, res)
		}
	}
	return nil
}

// normalisedResult is a Result as JSON with the configuration's identity
// strings blanked: a replay names its benchmark "trace:<path>", a live run
// "WATER-NS", and every measured field must match.
func normalisedResult(res core.Result) ([]byte, error) {
	res.Label, res.Benchmark = "", ""
	return json.Marshal(res)
}

// systemCounts reads a finished replay's counters: the engine, L1 and bus
// counts through the System's public accessors (a Result does not carry
// them), the rest from the Result.
func systemCounts(s *core.System, res core.Result) metrics {
	m := metrics{}
	eng := s.Engine()
	m["sim.events"] = float64(eng.Executed)
	m["sim.far_frac"] = ratio(float64(eng.FarEvents), float64(eng.Executed))
	var l1 uint64
	for _, c := range s.L1s() {
		l1 += c.Accesses()
	}
	m["coherence.l1_accesses"] = float64(l1)
	m["coherence.bus_txns"] = float64(s.Bus().Transactions.Value())
	addResultCounts(m, res)
	return m
}

// addResultCounts adds the counts a Result carries (summed when called for
// every job of a sweep).
func addResultCounts(m metrics, res core.Result) {
	m["cpu.instructions"] += float64(res.Instructions)
	m["core.l2_accesses"] += float64(res.L2Accesses)
	m["core.l2_misses"] += float64(res.L2Misses)
	m["mem.bytes"] += float64(res.MemoryBytes)
	m["decay.turnoff_requests"] += float64(res.TurnOffRequests)
	m["decay.turnoffs_completed"] += float64(res.TurnOffsCompleted)
	m["decay.induced_misses"] += float64(res.DecayInducedMisses)
	m["thermal.samples"] += float64(uint64(res.Cycles)/uint64(config.Default().ThermalSampleCycles) + 1)
}

// verify runs the same benchmark, scale and seed from the live generator:
// the replay's Result must equal it.
func (r *replay) verify() (int, []error) {
	live := r.sys.WithBenchmark(replayBenchmark)
	live.WorkloadScale = r.cfg.sizes.replayScale
	live.Seed = r.cfg.seed
	res, err := core.Run(live)
	if err != nil {
		return 1, []error{fmt.Errorf("live run: %w", err)}
	}
	b, err := normalisedResult(res)
	if err != nil {
		return 1, []error{err}
	}
	if !bytes.Equal(b, r.first) {
		return 1, []error{fmt.Errorf("replay Result differs from the live run of %s scale %g seed %d",
			replayBenchmark, r.cfg.sizes.replayScale, r.cfg.seed)}
	}
	return 1, nil
}

// layers adds the replay's counts, System.Run's time per event, and three
// timings of public calls the timed loop does not isolate: trace.Open plus
// Verify, trace decode, and live generation of the same streams.
func (r *replay) layers(m metrics, tr *tracer) error {
	for k, v := range r.layersM {
		m[k] = v
	}
	m["core.new_system_ms"] = median(r.newSys)
	m["sim.ns_per_event"] = ratio(median(tr.durationsMs("System.Run"))*1e6, m["sim.events"])

	var openMs, decodeNs, genNs []float64
	for range 3 {
		start := time.Now()
		sp := tr.begin("trace.Open+Verify", 0)
		f, err := trace.Open(r.path)
		if err == nil {
			err = f.Verify()
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		openMs = append(openMs, ms(time.Since(start)))

		streams := make([]workload.Stream, replayCores)
		for i := range streams {
			streams[i] = f.Stream(i)
		}
		ns, err := drainNs(tr, "trace.Reader.NextBatch", streams)
		if err != nil {
			return err
		}
		decodeNs = append(decodeNs, ns)

		gen, err := workload.ByName(replayBenchmark, r.cfg.sizes.replayScale)
		if err != nil {
			return err
		}
		ns, err = drainNs(tr, "workload.NextBatch", gen.Streams(replayCores, r.cfg.seed))
		if err != nil {
			return err
		}
		genNs = append(genNs, ns)
	}
	m["trace.open_verify_ms"] = median(openMs)
	m["trace.decode_ns_per_entry"] = median(decodeNs)
	m["workload.gen_ns_per_entry"] = median(genNs)
	return nil
}

// drainNs reads every stream to its end in batches and returns the wall time
// per entry in ns.
func drainNs(tr *tracer, name string, streams []workload.Stream) (float64, error) {
	buf := make([]workload.Entry, 4096)
	var entries int
	start := time.Now()
	sp := tr.begin(name, 0)
	for _, s := range streams {
		bs := workload.AsBatchStream(s)
		for n := bs.NextBatch(buf); n > 0; n = bs.NextBatch(buf) {
			entries += n
		}
		if r, ok := s.(*trace.Reader); ok && r.Err() != nil {
			return 0, r.Err()
		}
	}
	tr.end(sp)
	if entries == 0 {
		return 0, fmt.Errorf("%s: streams are empty", name)
	}
	return float64(time.Since(start)) / float64(entries), nil
}

func (r *replay) close() {}
