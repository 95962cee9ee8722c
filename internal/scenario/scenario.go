// Package scenario is the declarative experiment-matrix layer: a versioned
// JSON file names a cross-product of axes — benchmarks (synthetic or
// "trace:<path>"), total L2 sizes, decay techniques, core counts, seeds and
// a workload scale — plus per-axis overrides, and expands deterministically
// into experiment.Options cells the existing sweep, shard and cache
// machinery runs unchanged.
//
// A scenario file is the unit of reproduction: scenarios/paper.json is the
// paper's own figure matrix, and new studies (heterogeneous core counts,
// longer phases, recorded-trace variants of the benchmarks) are new files,
// not new flag plumbing.  Expansion is pure — the same file and base system
// always yield the same cells in the same order — so per-cell golden digests
// and sharded runs compose: `leaksweep -scenario f.json -shard i/n -cache
// DIRi` invocations, joined by `leaksweep -scenario f.json -merge 'DIR*'`,
// print byte-identically to the unsharded run.
//
// # Schema (version 2; version-1 files parse unchanged)
//
//	{
//	  "version": 2,              required; readers accept 1 and 2
//	  "name": "paper",           optional label used in cell names
//	  "benchmarks": [...],       registered names, "trace:<path>" or
//	                             "stat:<spec>" (workload stat grammar)
//	  "mixes": [                 version 2: heterogeneous per-core mixes
//	    {"name": "water+mpeg",
//	     "cores": ["WATER-NS","WATER-NS","mpeg2enc","mpeg2enc"]}
//	  ],
//	  "l2_sizes_mb": [1,2,4,8],  total L2 capacities; powers of two
//	  "techniques": [...],       decay.ParseSpec syntax ("decay:512K");
//	                             the always-on baseline runs implicitly
//	  "core_counts": [4],        optional, default [4]
//	  "seeds": [1],              optional, default [1]
//	  "scale": 1.0,              optional, default 1.0
//	  "overrides": [             optional per-axis parameter overrides
//	    {"l2_mb": 1, "cores": 0, "decay_cycles": "64K", "scale": 0.5}
//	  ]
//	}
//
// A mix assigns one benchmark per core as a tile pattern (core i runs
// cores[i % len(cores)]), so its length must divide every value of the
// core_counts axis; elements may be registered names, "trace:<path>" or
// "stat:<spec>", but not mixes themselves.  Each mix expands into the
// self-describing benchmark string "mix:<name>=<e1>|<e2>|..." alongside the
// plain benchmarks of every cell, which is exactly what lands in
// experiment.Options.Benchmarks — so result-cache keys and sweep digests
// distinguish mixes with no extra plumbing.  benchmarks may
// be empty when mixes is not.
//
// An override applies to every cell matching its selectors (l2_mb and cores;
// zero/omitted means "any") and rewrites the decay interval of every
// decay-family technique and/or the workload scale for those cells.  Sizes
// whose effective parameters diverge are split into separate cells, each a
// self-contained experiment.Options.
//
// # Versioning rules
//
// The version field is bumped whenever the schema changes incompatibly —
// removing or renaming a field, or changing the meaning of an existing one.
// Parsers reject versions they do not know with ErrVersion and unknown
// fields with ErrSyntax instead of guessing: a scenario silently
// misinterpreted is a wrong figure, not a crash, so strictness is the only
// safe default.  Adding a new optional field is a version bump for writers
// that use it.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"cmpleak/internal/config"
	"cmpleak/internal/decay"
	"cmpleak/internal/experiment"
	"cmpleak/internal/sim"
	"cmpleak/internal/thermal"
	"cmpleak/internal/workload"
)

// Version is the newest schema version this package reads and writes; any
// version in [minVersion, Version] is accepted, and fields introduced after
// a file's declared version are rejected so old files stay byte-identical
// in meaning.
const Version = 2

// minVersion is the oldest schema version still readable.
const minVersion = 1

// Validation errors: every rejection wraps one of these sentinels, so
// callers can classify failures with errors.Is while the message names the
// offending field and value.
var (
	// ErrSyntax reports malformed JSON or an unknown field.
	ErrSyntax = errors.New("scenario: malformed file")
	// ErrVersion reports a scenario written under an unknown schema version.
	ErrVersion = errors.New("scenario: unsupported version")
	// ErrEmptyAxis reports a required axis with no values.
	ErrEmptyAxis = errors.New("scenario: empty axis")
	// ErrDuplicate reports the same value listed twice in one axis.
	ErrDuplicate = errors.New("scenario: duplicate axis value")
	// ErrBenchmark reports an unknown benchmark name.
	ErrBenchmark = errors.New("scenario: unknown benchmark")
	// ErrSize reports a non-positive or non-power-of-two L2 size.
	ErrSize = errors.New("scenario: invalid L2 size")
	// ErrTechnique reports an unparseable or baseline technique entry.
	ErrTechnique = errors.New("scenario: invalid technique")
	// ErrCores reports a core count outside [1, thermal.MaxCores].
	ErrCores = errors.New("scenario: invalid core count")
	// ErrScale reports a non-positive or non-finite workload scale.
	ErrScale = errors.New("scenario: invalid scale")
	// ErrOverride reports an override with bad selectors or parameters.
	ErrOverride = errors.New("scenario: invalid override")
	// ErrMix reports an invalid mixes entry: bad name, malformed element
	// list, or a pattern length that does not divide a core count.
	ErrMix = errors.New("scenario: invalid mix")
	// ErrBenchmarkFile reports a scheme benchmark ("trace:<path>") whose
	// backing file is missing, unreadable or fails verification.  Validate
	// deliberately does not check this — a matrix must validate on machines
	// that do not hold the files — so it surfaces from Expand, before any
	// simulation runs, rather than mid-sweep.
	ErrBenchmarkFile = errors.New("scenario: benchmark file unavailable")
	// ErrBenchmarkCores reports a resolved benchmark that cannot run at one
	// of the scenario's core counts (a recorded trace replayed at the wrong
	// count).  Like ErrBenchmarkFile it depends on the local files, so it
	// surfaces from Expand, not Validate.
	ErrBenchmarkCores = errors.New("scenario: benchmark incompatible with core count")
)

// File is one parsed scenario.
type File struct {
	Version    int        `json:"version"`
	Name       string     `json:"name,omitempty"`
	Benchmarks []string   `json:"benchmarks"`
	Mixes      []Mix      `json:"mixes,omitempty"`
	L2SizesMB  []int      `json:"l2_sizes_mb"`
	Techniques []string   `json:"techniques"`
	CoreCounts []int      `json:"core_counts,omitempty"`
	Seeds      []uint64   `json:"seeds,omitempty"`
	Scale      float64    `json:"scale,omitempty"`
	Overrides  []Override `json:"overrides,omitempty"`
}

// Mix is one heterogeneous per-core benchmark assignment (version 2): the
// element list is a tile pattern over the cores of each cell.
type Mix struct {
	// Name labels the mix in cell job keys ("mix:<name>=...").
	Name string `json:"name"`
	// Cores assigns a benchmark per pattern slot; core i of a cell runs
	// Cores[i % len(Cores)].
	Cores []string `json:"cores"`
}

// spec renders the mix as its self-describing benchmark string.
func (m Mix) spec() string {
	return "mix:" + m.Name + "=" + strings.Join(m.Cores, "|")
}

// Override rewrites parameters for the cells its selectors match.
type Override struct {
	// L2MB / Cores select the cells the override applies to; zero means
	// "every value of that axis".  Non-zero selectors must name a value the
	// axis actually contains.
	L2MB  int `json:"l2_mb,omitempty"`
	Cores int `json:"cores,omitempty"`
	// DecayCycles, when set, replaces the decay interval of every
	// decay-family technique of the matching cells (decay.ParseCycles
	// syntax, e.g. "64K").
	DecayCycles string `json:"decay_cycles,omitempty"`
	// Scale, when non-zero, replaces the workload scale of the matching
	// cells.
	Scale float64 `json:"scale,omitempty"`
}

// Cell is one expanded experiment: a self-contained Options plus the label
// scenario-level tooling reports it under.
type Cell struct {
	// Name identifies the cell within the scenario ("paper/c4-seed1").
	Name string
	// Options is ready for experiment.RunParallelAllContext (sharding fields
	// zero; the caller sets them to slice the cell across processes).
	Options experiment.Options
}

// NamedOptions converts expanded cells to the pool's batch input: every
// cell's jobs flatten into one queue, and progress events carry the cell
// name in JobEvent.Cell.
func NamedOptions(cells []Cell) []experiment.NamedOptions {
	named := make([]experiment.NamedOptions, len(cells))
	for i, c := range cells {
		named[i] = experiment.NamedOptions{Name: c.Name, Options: c.Options}
	}
	return named
}

// Parse decodes and validates a scenario file.
func Parse(data []byte) (File, error) {
	var f File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return f, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	// Trailing garbage after the document is as suspect as a bad field.
	if err := dec.Decode(new(json.RawMessage)); err == nil {
		return f, fmt.Errorf("%w: trailing data after the scenario object", ErrSyntax)
	}
	if err := f.Validate(); err != nil {
		return f, err
	}
	return f, nil
}

// Load reads and parses the scenario file at path.
func Load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	f, err := Parse(data)
	if err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Validate checks every axis and override; the first violation is returned
// wrapped in its sentinel with the offending field named.
func (f File) Validate() error {
	if f.Version < minVersion || f.Version > Version {
		return fmt.Errorf("%w: file version %d, this reader supports %d to %d", ErrVersion, f.Version, minVersion, Version)
	}
	if f.Version < 2 && len(f.Mixes) > 0 {
		return fmt.Errorf("%w: mixes requires version 2, file declares %d", ErrVersion, f.Version)
	}
	if len(f.Benchmarks) == 0 && len(f.Mixes) == 0 {
		return fmt.Errorf("%w: benchmarks", ErrEmptyAxis)
	}
	if len(f.L2SizesMB) == 0 {
		return fmt.Errorf("%w: l2_sizes_mb", ErrEmptyAxis)
	}
	if len(f.Techniques) == 0 {
		return fmt.Errorf("%w: techniques", ErrEmptyAxis)
	}

	seenBench := map[string]bool{}
	for _, b := range f.Benchmarks {
		if seenBench[b] {
			return fmt.Errorf("%w: benchmarks lists %q twice", ErrDuplicate, b)
		}
		seenBench[b] = true
		if err := f.validateBenchmarkName(b, "benchmarks entry"); err != nil {
			return err
		}
	}

	seenMix := map[string]bool{}
	for i, m := range f.Mixes {
		if seenMix[m.Name] {
			return fmt.Errorf("%w: mixes lists name %q twice", ErrDuplicate, m.Name)
		}
		seenMix[m.Name] = true
		spec := m.spec()
		if seenBench[spec] {
			return fmt.Errorf("%w: benchmarks already lists %q", ErrDuplicate, spec)
		}
		seenBench[spec] = true
		// The spec string round-trips through workload.ParseMixSpec, which
		// enforces the grammar (non-empty name free of delimiters, non-empty
		// non-nested elements); element resolvability and tiling are checked
		// below like any mix-scheme benchmark.
		if err := f.validateMixSpec(strings.TrimPrefix(spec, "mix:"), fmt.Sprintf("mixes[%d]", i)); err != nil {
			return err
		}
	}

	seenSize := map[int]bool{}
	for _, mb := range f.L2SizesMB {
		if mb <= 0 || mb&(mb-1) != 0 {
			return fmt.Errorf("%w: l2_sizes_mb entry %d MB is not a positive power of two", ErrSize, mb)
		}
		if seenSize[mb] {
			return fmt.Errorf("%w: l2_sizes_mb lists %d twice", ErrDuplicate, mb)
		}
		seenSize[mb] = true
	}

	seenTech := map[string]bool{}
	for _, t := range f.Techniques {
		spec, err := decay.ParseSpec(t)
		if err != nil {
			return fmt.Errorf("%w: techniques entry %q: %v", ErrTechnique, t, err)
		}
		if spec.Kind == decay.KindAlwaysOn {
			return fmt.Errorf("%w: techniques entry %q: the always-on baseline runs implicitly", ErrTechnique, t)
		}
		if seenTech[spec.Name()] {
			return fmt.Errorf("%w: techniques lists %q twice", ErrDuplicate, spec.Name())
		}
		seenTech[spec.Name()] = true
	}

	seenCores := map[int]bool{}
	for _, c := range f.CoreCounts {
		if c <= 0 || c > thermal.MaxCores {
			return fmt.Errorf("%w: core_counts entry %d outside [1,%d]", ErrCores, c, thermal.MaxCores)
		}
		if c&(c-1) != 0 {
			// The total L2 capacity is split evenly across the private
			// caches; a non-power-of-two count cannot divide a power-of-two
			// capacity into valid power-of-two cache geometries, so it would
			// only fail later, deep inside cache validation.
			return fmt.Errorf("%w: core_counts entry %d is not a power of two", ErrCores, c)
		}
		if seenCores[c] {
			return fmt.Errorf("%w: core_counts lists %d twice", ErrDuplicate, c)
		}
		seenCores[c] = true
	}

	seenSeed := map[uint64]bool{}
	for _, s := range f.Seeds {
		if seenSeed[s] {
			return fmt.Errorf("%w: seeds lists %d twice", ErrDuplicate, s)
		}
		seenSeed[s] = true
	}

	if f.Scale < 0 || math.IsNaN(f.Scale) || math.IsInf(f.Scale, 0) {
		return fmt.Errorf("%w: scale %v must be positive and finite", ErrScale, f.Scale)
	}

	for i, ov := range f.Overrides {
		if ov.DecayCycles == "" && ov.Scale == 0 {
			return fmt.Errorf("%w: overrides[%d] sets neither decay_cycles nor scale", ErrOverride, i)
		}
		if ov.L2MB != 0 && !seenSize[ov.L2MB] {
			return fmt.Errorf("%w: overrides[%d] selects l2_mb %d, which l2_sizes_mb does not list", ErrOverride, i, ov.L2MB)
		}
		if ov.Cores != 0 && len(f.CoreCounts) > 0 && !seenCores[ov.Cores] {
			return fmt.Errorf("%w: overrides[%d] selects cores %d, which core_counts does not list", ErrOverride, i, ov.Cores)
		}
		if ov.Cores != 0 && len(f.CoreCounts) == 0 && ov.Cores != defaultCores {
			return fmt.Errorf("%w: overrides[%d] selects cores %d, but the scenario runs the default %d", ErrOverride, i, ov.Cores, defaultCores)
		}
		if ov.DecayCycles != "" {
			c, err := decay.ParseCycles(ov.DecayCycles)
			if err != nil || c == 0 {
				return fmt.Errorf("%w: overrides[%d] decay_cycles %q", ErrOverride, i, ov.DecayCycles)
			}
		}
		if ov.Scale < 0 || math.IsNaN(ov.Scale) || math.IsInf(ov.Scale, 0) {
			return fmt.Errorf("%w: overrides[%d] scale %v must be positive and finite", ErrOverride, i, ov.Scale)
		}
	}
	return nil
}

// validateBenchmarkName statically validates one benchmarks-axis entry.
// Plain names must be registered (a lookup; no generator is built);
// "mix:"/"stat:" payloads are pure (no files involved) so their grammar is
// checked here; other schemes ("trace:<path>") resolve at Expand time — the
// file need not exist on the machine that validates the matrix.
func (f File) validateBenchmarkName(b, ctx string) error {
	scheme, rest, ok := strings.Cut(b, ":")
	if !ok {
		if !workload.Registered(b) {
			return fmt.Errorf("%w: %s %q", ErrBenchmark, ctx, b)
		}
		return nil
	}
	if rest == "" {
		return fmt.Errorf("%w: %s %q has an empty scheme payload", ErrBenchmark, ctx, b)
	}
	switch scheme {
	case "mix":
		return f.validateMixSpec(rest, ctx)
	case "stat":
		if _, err := workload.ByName(b, 1.0); err != nil {
			return fmt.Errorf("%w: %s %q: %v", ErrBenchmark, ctx, b, err)
		}
	}
	return nil
}

// ReadsFiles reports whether expanding f reads a file on this machine: a
// benchmark that resolves through a file ("trace:<path>"), bare or as a mix
// element.  Such an expansion depends on more than the scenario's bytes —
// the file may have gone or changed since — so it must not be reused.  Any
// scheme other than the pure "stat:" and "mix:" counts as reading a file.
func (f File) ReadsFiles() bool {
	for _, b := range f.Benchmarks {
		if readsFile(b) {
			return true
		}
	}
	for _, m := range f.Mixes {
		for _, e := range m.Cores {
			if readsFile(e) {
				return true
			}
		}
	}
	return false
}

// readsFile reports whether resolving benchmark name b reads a file.
func readsFile(b string) bool {
	scheme, rest, ok := strings.Cut(b, ":")
	switch {
	case !ok, scheme == "stat":
		return false
	case scheme == "mix":
		_, elems, err := workload.ParseMixSpec(rest)
		return err != nil || slices.ContainsFunc(elems, readsFile)
	}
	return true
}

// validateMixSpec statically validates a mix spec (grammar, element names,
// tiling against every core count); every rejection wraps ErrMix.
func (f File) validateMixSpec(rest, ctx string) error {
	name, elems, err := workload.ParseMixSpec(rest)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrMix, ctx, err)
	}
	for _, e := range elems {
		scheme, payload, ok := strings.Cut(e, ":")
		switch {
		case !ok:
			if !workload.Registered(e) {
				return fmt.Errorf("%w: %s: mix %q element %q is not a known benchmark", ErrMix, ctx, name, e)
			}
		case payload == "":
			return fmt.Errorf("%w: %s: mix %q element %q has an empty scheme payload", ErrMix, ctx, name, e)
		case scheme == "stat":
			if _, err := workload.ByName(e, 1.0); err != nil {
				return fmt.Errorf("%w: %s: mix %q element %q: %v", ErrMix, ctx, name, e, err)
			}
		}
	}
	for _, c := range f.coreCounts() {
		if c%len(elems) != 0 {
			return fmt.Errorf("%w: %s: mix %q has %d per-core elements, which do not tile core count %d",
				ErrMix, ctx, name, len(elems), c)
		}
	}
	return nil
}

// defaultCores is the paper's core count, used when core_counts is omitted.
const defaultCores = 4

// coreCounts returns the effective core-count axis.
func (f File) coreCounts() []int {
	if len(f.CoreCounts) == 0 {
		return []int{defaultCores}
	}
	return f.CoreCounts
}

// seeds returns the effective seed axis.
func (f File) seeds() []uint64 {
	if len(f.Seeds) == 0 {
		return []uint64{1}
	}
	return f.Seeds
}

// scale returns the effective base scale.
func (f File) scale() float64 {
	if f.Scale == 0 {
		return 1.0
	}
	return f.Scale
}

// cellParams is the effective per-size parameter set after overrides; sizes
// with equal parameters share one experiment.Options.
type cellParams struct {
	decayCycles sim.Cycle // 0 = keep each technique's own interval
	scale       float64
}

// paramsFor applies the overrides, in declaration order, to one
// (cores, size) coordinate.
func (f File) paramsFor(cores, sizeMB int) cellParams {
	p := cellParams{scale: f.scale()}
	for _, ov := range f.Overrides {
		if ov.L2MB != 0 && ov.L2MB != sizeMB {
			continue
		}
		if ov.Cores != 0 && ov.Cores != cores {
			continue
		}
		if ov.DecayCycles != "" {
			c, _ := decay.ParseCycles(ov.DecayCycles)
			p.decayCycles = c
		}
		if ov.Scale != 0 {
			p.scale = ov.Scale
		}
	}
	return p
}

// Expand validates the scenario and expands it into its cells: one
// experiment.Options per (core count, seed, override-equivalence group of
// sizes), in deterministic declaration order.  The base system supplies
// everything the file does not sweep (cache geometry, bus, power, thermal
// parameters).
func (f File) Expand(base config.System) ([]Cell, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	specs := make([]decay.Spec, len(f.Techniques))
	for i, t := range f.Techniques {
		specs[i], _ = decay.ParseSpec(t) // validated above
	}

	// Resolve every benchmark now — mixes expand to their self-describing
	// "mix:<name>=..." strings alongside the plain entries.  Expand runs on
	// the machine that will simulate, so "trace:<path>" files (bare or
	// inside a mix) must exist and verify here — failing before the first
	// cell starts beats failing N jobs into a sweep.  The resolution itself
	// is not wasted: trace files resolve through a process-wide
	// verified-file cache, so the sweep's own lookups hit it.
	benchNames := append([]string(nil), f.Benchmarks...)
	for _, m := range f.Mixes {
		benchNames = append(benchNames, m.spec())
	}
	allSeedInvariant := true
	for _, b := range benchNames {
		gen, err := workload.ByName(b, 1.0)
		if err != nil {
			return nil, fmt.Errorf("%w: benchmarks entry %q: %v", ErrBenchmarkFile, b, err)
		}
		// Core-count compatibility is a property of the resolved generator
		// (a trace knows its recorded cores only once its file is read), so
		// it too surfaces here rather than N jobs into a sweep.
		for _, cores := range f.coreCounts() {
			if err := workload.CheckCores(gen, cores); err != nil {
				return nil, fmt.Errorf("%w: benchmarks entry %q at %d cores: %v", ErrBenchmarkCores, b, cores, err)
			}
		}
		if !workload.IsSeedInvariant(gen) {
			allSeedInvariant = false
		}
	}
	seeds := f.seeds()
	if allSeedInvariant && len(seeds) > 1 {
		// Every benchmark ignores the seed (recorded traces, mixes of them):
		// the remaining seed-axis cells would be byte-identical replays under
		// distinct cache keys, so the axis collapses to its first value.
		seeds = seeds[:1]
	}

	var cells []Cell
	for _, cores := range f.coreCounts() {
		for _, seed := range seeds {
			// Group sizes by their effective parameters, preserving the
			// declared size order; groups emit in order of first appearance.
			type group struct {
				params cellParams
				sizes  []int
			}
			var groups []*group
			for _, mb := range f.L2SizesMB {
				p := f.paramsFor(cores, mb)
				var g *group
				for _, cand := range groups {
					if cand.params == p {
						g = cand
						break
					}
				}
				if g == nil {
					g = &group{params: p}
					groups = append(groups, g)
				}
				g.sizes = append(g.sizes, mb)
			}
			for _, g := range groups {
				eff := specs
				if g.params.decayCycles != 0 {
					eff = make([]decay.Spec, len(specs))
					for i, s := range specs {
						if s.DecayCycles != 0 {
							s.DecayCycles = g.params.decayCycles
						}
						eff[i] = s
					}
				}
				cells = append(cells, Cell{
					Name: f.cellName(cores, seed, g.sizes, len(groups) > 1),
					Options: experiment.Options{
						Base:         base.WithCores(cores),
						Benchmarks:   append([]string(nil), benchNames...),
						CacheSizesMB: append([]int(nil), g.sizes...),
						Techniques:   append([]decay.Spec(nil), eff...),
						Scale:        g.params.scale,
						Seed:         seed,
					},
				})
			}
		}
	}
	return cells, nil
}

// cellName labels one cell ("paper/c4-seed1", plus the size group when
// overrides split the size axis: "study/c2-seed1-l2_1MB").
func (f File) cellName(cores int, seed uint64, sizes []int, split bool) string {
	var b strings.Builder
	if f.Name != "" {
		fmt.Fprintf(&b, "%s/", f.Name)
	}
	fmt.Fprintf(&b, "c%d-seed%d", cores, seed)
	if split {
		parts := make([]string, len(sizes))
		for i, mb := range sizes {
			parts[i] = fmt.Sprintf("%d", mb)
		}
		fmt.Fprintf(&b, "-l2_%sMB", strings.Join(parts, "+"))
	}
	return b.String()
}
