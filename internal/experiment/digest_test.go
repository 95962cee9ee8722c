package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"cmpleak/internal/core"
)

// defaultOptionsDigest is DefaultOptions(0.05).Digest() as every result
// cache written so far keys it.  A change here cold-invalidates every store,
// so it must be deliberate.
const defaultOptionsDigest = "071d7da73cd742c7ef48009e114ae20f0718e32b3aa3f10ef5e10044ea931437"

// TestOptionsDigest pins the cache key's input side: the digest is
// deterministic, changing any field that determines a job's result —
// including the seed and the base system — changes it, and the shard slice,
// which only chooses which jobs run, does not.
func TestOptionsDigest(t *testing.T) {
	if got := DefaultOptions(0.05).Digest(); got != defaultOptionsDigest {
		t.Fatalf("DefaultOptions(0.05).Digest() = %s, want %s", got, defaultOptionsDigest)
	}
	a := parallelOptions()
	if a.Digest() != a.Digest() {
		t.Fatal("digest is not deterministic")
	}
	sharded := a
	sharded.ShardIndex, sharded.ShardCount = 1, 2
	if sharded.Digest() != a.Digest() {
		t.Fatal("a sharded Options digests differently from its unsharded counterpart")
	}
	seen := map[string]string{a.Digest(): "base"}
	mutate := map[string]func(*Options){
		"scale":     func(o *Options) { o.Scale *= 2 },
		"seed":      func(o *Options) { o.Seed++ },
		"benchmark": func(o *Options) { o.Benchmarks = []string{"FMM"} },
		"sizes":     func(o *Options) { o.CacheSizesMB = []int{2} },
		"technique": func(o *Options) { o.Techniques = o.Techniques[:1] },
		"base":      func(o *Options) { o.Base.L2MSHREntries++ },
	}
	for name, f := range mutate {
		o := parallelOptions()
		f(&o)
		d := o.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("mutating %q digests identically to %q", name, prev)
		}
		seen[d] = name
	}
}

// legacyHashU64 / legacyHashF64 / legacyHashStr / legacyHashResult are the
// per-field hash.Hash writer Sweep.Digest used before it streamed each run
// through one buffer.  The recorded digests were taken over this byte
// stream, so the two must agree on every result shape.
func legacyHashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func legacyHashF64(h hash.Hash, v float64) { legacyHashU64(h, math.Float64bits(v)) }

func legacyHashStr(h hash.Hash, s string) {
	legacyHashU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func legacyHashResult(h hash.Hash, r core.Result) {
	legacyHashStr(h, r.Label)
	legacyHashStr(h, r.Benchmark)
	legacyHashStr(h, r.Technique)
	legacyHashU64(h, r.TotalL2Bytes)
	legacyHashU64(h, uint64(r.Cycles))
	legacyHashU64(h, r.Instructions)
	legacyHashF64(h, r.IPC)
	legacyHashU64(h, uint64(len(r.PerCoreIPC)))
	for _, v := range r.PerCoreIPC {
		legacyHashF64(h, v)
	}
	legacyHashF64(h, r.L2OccupationRate)
	legacyHashF64(h, r.L2MissRate)
	legacyHashU64(h, r.L2Accesses)
	legacyHashU64(h, r.L2Misses)
	legacyHashF64(h, r.AMAT)
	legacyHashF64(h, r.L1MissRate)
	legacyHashU64(h, r.MemoryBytes)
	legacyHashF64(h, r.MemoryBandwidth)
	legacyHashF64(h, r.BusUtilization)
	legacyHashF64(h, r.Energy.CoreDynamic)
	legacyHashF64(h, r.Energy.CoreLeakage)
	legacyHashF64(h, r.Energy.L1Dynamic)
	legacyHashF64(h, r.Energy.L1Leakage)
	legacyHashF64(h, r.Energy.L2Dynamic)
	legacyHashF64(h, r.Energy.L2Leakage)
	legacyHashF64(h, r.Energy.Bus)
	legacyHashF64(h, r.Energy.DecayOverhead)
	legacyHashF64(h, r.EnergyJ)
	legacyHashU64(h, uint64(len(r.FinalTempsC)))
	for _, v := range r.FinalTempsC {
		legacyHashF64(h, v)
	}
	legacyHashF64(h, r.MaxTempC)
	legacyHashU64(h, r.TurnOffRequests)
	legacyHashU64(h, r.TurnOffsCompleted)
	legacyHashU64(h, r.TurnOffWritebacks)
	legacyHashU64(h, r.TurnOffL1Invalidations)
	legacyHashU64(h, r.ProtocolInvalidations)
	legacyHashU64(h, r.DecayInducedMisses)
	legacyHashU64(h, r.BackInvalidations)
}

func legacyDigest(s *Sweep) string {
	h := sha256.New()
	for _, k := range s.Keys() {
		legacyHashStr(h, fmt.Sprintf("%s/%dMB/%s", k.Benchmark, k.SizeMB, k.Technique))
		r, _ := s.Result(k.Benchmark, k.SizeMB, k.Technique)
		legacyHashResult(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fillRandom sets every field of v (strings, integers, floats, float slices
// of length n, nested structs) to a random value.
func fillRandom(rng *rand.Rand, v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(strings.Repeat("x", rng.IntN(12)))
	case reflect.Uint64:
		v.SetUint(rng.Uint64())
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(rng.Uint64()))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillRandom(rng, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i), n)
		}
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

// syntheticSweep assembles a sweep over opts whose results are random, with
// PerCoreIPC and FinalTempsC of length n.
func syntheticSweep(opts Options, seed uint64, n int) *Sweep {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	s := newSweep(opts, opts.jobs())
	for i := range s.res {
		fillRandom(rng, reflect.ValueOf(&s.res[i]).Elem(), n)
	}
	return s
}

func TestSweepDigestMatchesPerFieldStream(t *testing.T) {
	opts := DefaultOptions(0.01)
	opts.Benchmarks = []string{"WATER-NS", "FMM", "mix:FMM+VOLREND"}
	opts.CacheSizesMB = []int{16, 2, 1024}
	for _, n := range []int{0, 1, 8} {
		s := syntheticSweep(opts, 1, n)
		if got, want := s.Digest(), legacyDigest(s); got != want {
			t.Errorf("per-core slices of length %d: Digest = %s, per-field stream = %s", n, got, want)
		}
	}
}

// TestSweepDigestAllocationFree guards Sweep.Digest (`make test-allocs`):
// it allocates a fixed handful of objects (the run buffer and the hex
// result today), never a number that grows with the runs.
func TestSweepDigestAllocationFree(t *testing.T) {
	small := DefaultOptions(0.01)
	small.Benchmarks, small.CacheSizesMB = small.Benchmarks[:1], small.CacheSizesMB[:1]
	full := DefaultOptions(0.01)
	var allocs []float64
	for _, opts := range []Options{small, full} {
		s := syntheticSweep(opts, 2, opts.Base.Cores)
		allocs = append(allocs, testing.AllocsPerRun(20, func() { _ = s.Digest() }))
	}
	if jobs := len(full.Jobs()); jobs != 192 || len(small.Jobs()) != 8 {
		t.Fatalf("sweep sizes %d and %d, want 8 and 192", len(small.Jobs()), jobs)
	}
	if allocs[0] != allocs[1] || allocs[1] > 4 {
		t.Fatalf("Digest allocates %.0f objects for 8 runs and %.0f for 192, want the same handful (<= 4)",
			allocs[0], allocs[1])
	}
}
