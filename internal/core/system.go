package core

import (
	"fmt"

	"cmpleak/internal/cache"
	"cmpleak/internal/coherence"
	"cmpleak/internal/config"
	"cmpleak/internal/cpu"
	"cmpleak/internal/mem"
	"cmpleak/internal/power"
	"cmpleak/internal/sim"
	"cmpleak/internal/thermal"
	"cmpleak/internal/workload"
)

// System assembles the full CMP of Figure 1 — cores, write-through L1s with
// write buffers, leakage-aware private L2s, the snoopy bus, off-chip memory,
// the selected leakage technique, and the power/thermal models — and runs
// one benchmark to completion.
type System struct {
	cfg config.System

	eng     *sim.Engine
	memory  *mem.Memory
	bus     *coherence.Bus
	l1s     []*coherence.L1Controller
	l2s     []*Controller
	cores   []*cpu.Core
	streams []workload.Stream // per-core, as built; checked for decode errors after the run
	thermal *thermal.Model

	coresDone int

	// Energy integration state (per thermal sample).
	blockPower      []float64 // reused per-sample power map, floorplan order
	breakdown       power.Breakdown
	lastSample      sim.Cycle
	lastInstrs      []uint64
	lastL1Accesses  []uint64
	lastL2Accesses  []uint64
	lastL2On        []uint64
	lastBusTxns     uint64
	lastBusBytes    uint64
	maxTempObserved float64
}

// NewSystem builds and wires the CMP described by the configuration, its
// cores driven by cfg.Workload()'s streams.
func NewSystem(cfg config.System) (*System, error) {
	return NewSystemFrom(cfg, nil)
}

// NewSystemFrom is NewSystem with the cores driven by gen's streams instead
// of cfg.Workload()'s; a nil gen means cfg.Workload().  gen must produce
// exactly the streams cfg.Workload() would for cfg.Cores and cfg.Seed — the
// sweep pool passes an in-memory replay of them — because the result still
// names cfg's benchmark.  It is Rebuild applied to a zero System: there is
// one construction path, whether the storage is new or reused.
func NewSystemFrom(cfg config.System, gen workload.Generator) (*System, error) {
	s := new(System)
	if err := s.Rebuild(cfg, gen); err != nil {
		return nil, err
	}
	return s, nil
}

// Rebuild makes s, in place, the System NewSystemFrom(cfg, gen) would
// build, ready to Run: cycle 0, every cache empty and every statistic zero.
// It reuses the storage of the system s held before — the engine's event
// nodes, each L1 and L2 array (and a decaying bank's arm ticks and bitmaps,
// which the technique re-enables when the run starts), the cores' batch
// buffers, the MSHR, write-buffer and decayed-block tables — wherever it is
// large enough, so rebuilding a system of the same or a smaller geometry
// allocates a few kilobytes instead of the megabytes of its L2 banks.  A
// Result does not depend on whether its System was new or rebuilt.
//
// Rebuild starts from whatever state s is in — a finished run, a run that
// failed or panicked, a failed Rebuild — but after a failed Rebuild, s must
// not Run until a Rebuild succeeds.  The sweep pool gives each worker one
// System and rebuilds it for every job (experiment.RunParallelAllContext);
// it still discards a worker's System after a failed job, so a fault cannot
// reach the next job through storage the two shared.
func (s *System) Rebuild(cfg config.System, gen workload.Generator) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var err error
	if gen == nil {
		if gen, err = cfg.Workload(); err != nil {
			return err
		}
	}
	th, err := thermal.New(cfg.Thermal, cfg.Cores)
	if err != nil {
		return err
	}

	eng, memory, bus := s.eng, s.memory, s.bus
	if eng == nil {
		eng, memory, bus = new(sim.Engine), new(mem.Memory), new(coherence.Bus)
	}
	eng.Init()
	memory.Init(eng, cfg.Memory)
	bus.Init(eng, memory, cfg.Bus)
	*s = System{
		cfg:     cfg,
		eng:     eng,
		memory:  memory,
		bus:     bus,
		thermal: th,
		l1s:     reuseObjects(s.l1s, cfg.Cores),
		l2s:     reuseObjects(s.l2s, cfg.Cores),
		cores:   reuseObjects(s.cores, cfg.Cores),
		streams: gen.Streams(cfg.Cores, cfg.Seed),
	}

	onDone := func(int) {
		s.coresDone++
		if s.coresDone >= len(s.cores) {
			// Halt the engine's drain loop at exactly this event: events
			// still queued for the same cycle stay queued, matching the
			// old per-event Step loop's stop point bit for bit.
			s.eng.Halt()
		}
	}
	for i := 0; i < cfg.Cores; i++ {
		l1, ctrl, core := s.l1s[i], s.l2s[i], s.cores[i]
		l1cfg := cfg.L1
		l1cfg.Cache.Name = fmt.Sprintf("L1-%d", i)
		if err := l1.Init(i, eng, l1cfg); err != nil {
			return err
		}

		l2cfg := cfg.L2
		l2cfg.Name = fmt.Sprintf("L2-%d", i)
		err := ctrl.Init(eng, bus, l1, ControllerConfig{
			ID:          i,
			Cache:       l2cfg,
			MSHREntries: cfg.L2MSHREntries,
			Technique:   cfg.Technique,
		})
		if err != nil {
			return err
		}
		l1.SetLowerLevel(ctrl)

		if err := core.Init(i, eng, cfg.Core, l1, s.streams[i]); err != nil {
			return err
		}
		core.OnDone(onDone)
	}

	s.blockPower = make([]float64, s.thermal.NumBlocks())
	s.lastInstrs = make([]uint64, cfg.Cores)
	s.lastL1Accesses = make([]uint64, cfg.Cores)
	s.lastL2Accesses = make([]uint64, cfg.Cores)
	s.lastL2On = make([]uint64, cfg.Cores)
	s.maxTempObserved = s.thermal.MaxTemp()
	return nil
}

// reuseObjects returns objs resliced to n entries, keeping the objects it
// already holds (within its capacity) for Init to rebuild in place and
// allocating the missing ones.
func reuseObjects[T any](objs []*T, n int) []*T {
	if cap(objs) < n {
		objs = append(objs[:cap(objs)], make([]*T, n-cap(objs))...)
	}
	objs = objs[:n]
	for i, p := range objs {
		if p == nil {
			objs[i] = new(T)
		}
	}
	return objs
}

// Engine exposes the simulation engine (used by tests).
func (s *System) Engine() *sim.Engine { return s.eng }

// Controllers exposes the L2 controllers (used by tests and tools).
func (s *System) Controllers() []*Controller { return s.l2s }

// L1s exposes the L1 controllers.
func (s *System) L1s() []*coherence.L1Controller { return s.l1s }

// Bus exposes the shared bus.
func (s *System) Bus() *coherence.Bus { return s.bus }

// Memory exposes the off-chip memory model.
func (s *System) Memory() *mem.Memory { return s.memory }

// allDone reports whether every core finished.
func (s *System) allDone() bool { return s.coresDone >= len(s.cores) }

// Run executes the benchmark to completion and returns the collected result.
func (s *System) Run() (Result, error) {
	// Start the technique (baseline powers everything; decay techniques
	// start their global-tick scanners), then the cores.
	for _, ctrl := range s.l2s {
		s.cfg.Technique.Start(s.eng, ctrl)
	}
	for _, c := range s.cores {
		c.Start()
	}
	// The periodic power/thermal sampler mirrors the paper's 10 000-cycle
	// power trace.  It is a recurring engine event: one pooled node refired
	// in place each period.
	sampler := s.eng.ScheduleRecurring(s.cfg.ThermalSampleCycles, func(now sim.Cycle) bool {
		s.samplePowerAndThermal(now)
		return !s.allDone()
	})

	// The engine's bucket-drain loop runs the whole simulation in one call:
	// the last core's OnDone callback halts it mid-bucket at exactly the
	// event that finished the run (so the stop point — and therefore every
	// result bit — matches the former per-event Step loop), and the cycle
	// limit turns a runaway simulation into RunLimited instead of a
	// per-event clock check.
	limit := sim.CycleMax
	if s.cfg.MaxCycles != 0 {
		limit = s.cfg.MaxCycles
	}
	for !s.allDone() {
		switch s.eng.RunLimit(limit) {
		case sim.RunDrained:
			return Result{}, fmt.Errorf("core: event queue drained before all cores finished (%d/%d done)",
				s.coresDone, len(s.cores))
		case sim.RunLimited:
			return Result{}, fmt.Errorf("core: simulation exceeded MaxCycles=%d", s.cfg.MaxCycles)
		}
	}
	// A stream that fails mid-run (a trace chunk that does not decode)
	// reads as exhausted to its core, so the run above ends early without
	// complaint; fail it here instead of returning a truncated result.  The
	// wrap keeps the chain, so a transient read fault is retried.
	for i, st := range s.streams {
		if e, ok := st.(interface{ Err() error }); ok {
			if err := e.Err(); err != nil {
				return Result{}, fmt.Errorf("core: stream of core %d: %w", i, err)
			}
		}
	}
	// The streams are spent; a System kept for its next job must not keep
	// them, and the trace behind them, alive (the stream memo drops a
	// trace after its key's last job).
	s.streams = nil
	sampler.Stop()
	// Account the tail interval since the last sample.
	s.samplePowerAndThermal(s.eng.Now())
	return s.collect(), nil
}

// samplePowerAndThermal integrates energy over the elapsed interval and
// advances the thermal model with the interval's average power.
func (s *System) samplePowerAndThermal(now sim.Cycle) {
	if now <= s.lastSample {
		return
	}
	interval := uint64(now - s.lastSample)
	dt := s.cfg.Power.CyclesToSeconds(interval)
	p := s.cfg.Power

	blockPower := s.blockPower
	for i := range blockPower {
		blockPower[i] = 0
	}
	tech := s.cfg.Technique
	counterLeak, areaOverhead := 0.0, 0.0
	if tech.Decays() {
		counterLeak = p.DecayCounterLeakFraction
	}
	if tech.Gates() {
		areaOverhead = p.GatedVddAreaOverhead
	}

	for i := range s.cores {
		coreTemp := s.thermal.Temp(s.thermal.CoreBlock(i))
		l2Temp := s.thermal.Temp(s.thermal.L2Block(i))
		if !s.cfg.ThermalFeedback {
			coreTemp = s.cfg.Thermal.InitialC
			l2Temp = s.cfg.Thermal.InitialC
		}
		coreScale := p.Leakage.Scale(coreTemp)
		l2Scale := p.Leakage.Scale(l2Temp)

		// Core + L1 (same floorplan block).
		instrs := s.cores[i].Instructions.Value()
		dInstrs := instrs - s.lastInstrs[i]
		s.lastInstrs[i] = instrs
		coreDyn := power.CoreDynamicEnergy(p, dInstrs)
		coreLeak := power.CoreLeakageEnergy(p, interval, coreScale)

		l1Acc := s.l1s[i].Accesses()
		dL1 := l1Acc - s.lastL1Accesses[i]
		s.lastL1Accesses[i] = l1Acc
		l1Dyn := power.L1DynamicEnergy(p, dL1)
		l1Leak := power.L1LeakageEnergy(p, interval, coreScale)

		// L2 bank: dynamic from accesses, leakage from exact on/off
		// line-cycles in the interval.
		l2cfgArr := s.l2s[i].Array()
		l2Acc := s.l2s[i].Accesses()
		dL2 := l2Acc - s.lastL2Accesses[i]
		s.lastL2Accesses[i] = l2Acc
		l2Dyn := float64(dL2) * power.L2AccessEnergy(p, l2cfgArr.Config())

		onTotal := l2cfgArr.OnCycles(now)
		dOn := onTotal - s.lastL2On[i]
		s.lastL2On[i] = onTotal
		totalLineCycles := uint64(l2cfgArr.Config().NumLines()) * interval
		dOff := uint64(0)
		if totalLineCycles > dOn {
			dOff = totalLineCycles - dOn
		}
		l2Leak := power.CacheLeakageEnergy(p, l2cfgArr.Config(), dOn, dOff, l2Scale, areaOverhead, counterLeak)

		decayDyn := 0.0
		if tech.Decays() {
			decayDyn = power.DecayCounterDynamicEnergy(p, dL2)
		}

		s.breakdown.CoreDynamic += coreDyn
		s.breakdown.CoreLeakage += coreLeak
		s.breakdown.L1Dynamic += l1Dyn
		s.breakdown.L1Leakage += l1Leak
		s.breakdown.L2Dynamic += l2Dyn
		s.breakdown.L2Leakage += l2Leak
		s.breakdown.DecayOverhead += decayDyn

		blockPower[s.thermal.CoreBlock(i)] = (coreDyn + coreLeak + l1Dyn + l1Leak) / dt
		blockPower[s.thermal.L2Block(i)] = (l2Dyn + l2Leak + decayDyn) / dt
	}

	busTxns := s.bus.Transactions.Value()
	busBytes := s.bus.BytesTransfered.Value()
	busEnergy := power.BusEnergy(p, busTxns-s.lastBusTxns, busBytes-s.lastBusBytes)
	s.lastBusTxns, s.lastBusBytes = busTxns, busBytes
	s.breakdown.Bus += busEnergy
	blockPower[s.thermal.Bus()] = busEnergy / dt

	if s.cfg.ThermalFeedback {
		s.thermal.Step(blockPower, dt)
		if t := s.thermal.MaxTemp(); t > s.maxTempObserved {
			s.maxTempObserved = t
		}
	}
	s.lastSample = now
}

// collect assembles the Result after the run completes.
func (s *System) collect() Result {
	now := s.eng.Now()
	res := Result{
		Label:        s.cfg.Label(),
		Benchmark:    s.benchmarkName(),
		Technique:    s.cfg.Technique.Name(),
		TotalL2Bytes: s.cfg.TotalL2Bytes(),
		Cycles:       now,
		Energy:       s.breakdown,
		EnergyJ:      s.breakdown.Total(),
		FinalTempsC:  s.thermal.Temps(),
		MaxTempC:     s.maxTempObserved,
	}

	var onCycles, lineCycles float64
	var l2Acc, l2Miss uint64
	var loadLatSum, loadCount uint64
	var l1Acc, l1Miss uint64
	for i := range s.cores {
		res.Instructions += s.cores[i].Instructions.Value()
		res.PerCoreIPC = append(res.PerCoreIPC, s.cores[i].IPC())

		arr := s.l2s[i].Array()
		onCycles += float64(arr.OnCycles(now))
		lineCycles += float64(arr.Config().NumLines()) * float64(now)
		l2Acc += s.l2s[i].Accesses()
		l2Miss += s.l2s[i].Misses()

		loadLatSum += s.l1s[i].LoadLatency.Sum()
		loadCount += s.l1s[i].LoadLatency.Count()
		l1Acc += s.l1s[i].Accesses()
		l1Miss += s.l1s[i].LoadMisses.Value() + s.l1s[i].StoreMisses.Value()

		res.TurnOffRequests += s.l2s[i].TurnOffRequests.Value()
		res.TurnOffsCompleted += s.l2s[i].TurnOffsCompleted.Value()
		res.TurnOffWritebacks += s.l2s[i].TurnOffWritebacks.Value()
		res.TurnOffL1Invalidations += s.l2s[i].TurnOffL1Invalidations.Value()
		res.ProtocolInvalidations += s.l2s[i].ProtocolInvalidations.Value()
		res.DecayInducedMisses += s.l2s[i].DecayInducedMisses.Value()
		res.BackInvalidations += s.l1s[i].BackInvalidates.Value()
	}
	if now > 0 {
		res.IPC = float64(res.Instructions) / float64(now)
		res.MemoryBandwidth = float64(s.memory.TotalBytes()) / float64(now)
		res.BusUtilization = s.bus.Utilization(now)
	}
	if lineCycles > 0 {
		res.L2OccupationRate = onCycles / lineCycles
	}
	if l2Acc > 0 {
		res.L2MissRate = float64(l2Miss) / float64(l2Acc)
	}
	res.L2Accesses, res.L2Misses = l2Acc, l2Miss
	if loadCount > 0 {
		// Exact below 2^53, so the reported mean is bit-identical to the
		// former float64 accumulation.
		res.AMAT = float64(loadLatSum) / float64(loadCount)
	}
	if l1Acc > 0 {
		res.L1MissRate = float64(l1Miss) / float64(l1Acc)
	}
	res.MemoryBytes = s.memory.TotalBytes()
	return res
}

func (s *System) benchmarkName() string {
	if s.cfg.Synthetic != nil {
		if s.cfg.Synthetic.Name != "" {
			return s.cfg.Synthetic.Name
		}
		return "synthetic"
	}
	return s.cfg.Benchmark
}

// Run builds a system from the configuration and runs it; it is the
// convenience entry point used by the experiment layer, the CLI and the
// public facade.
func Run(cfg config.System) (Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}

// cacheConfigForTotal is a small helper used by tests to derive a per-core
// configuration from a total capacity.
func cacheConfigForTotal(totalBytes uint64, cores int, template cache.Config) cache.Config {
	out := template
	out.SizeBytes = totalBytes / uint64(cores)
	return out
}
