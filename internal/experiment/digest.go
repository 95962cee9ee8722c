package experiment

// Digesting.  Sweep.Digest is a SHA-256 over every field of every
// core.Result of a sweep, in stable key order.  The golden tests (this
// package's fixed-seed digest and the scenario layer's per-cell digests) pin
// simulator output to recorded values with it, so a refactor that silently
// changes timing, energy integration or decay behaviour fails tier-1 instead
// of shipping a plausible-but-different simulator.  Options.Digest is the
// input side: it identifies everything that determines a sweep's results,
// and the result cache keys every record on it.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
)

// hashedResultFields is the number of core.Result struct fields appendResult
// folds into the digest; TestGoldenDigestCoversAllResultFields fails when
// Result grows past it, so the digest cannot silently lose coverage.
const hashedResultFields = 28

// appendU64 / appendF64 / appendStr append one field of the digest input in
// a fixed byte order; floats go in as IEEE-754 bits so the comparison is
// exact.
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendStr(b []byte, s string) []byte {
	return append(appendU64(b, uint64(len(s))), s...)
}

// appendKey appends a run key as appendStr(k.String()) would, without
// building the string.
func appendKey(b []byte, k Key) []byte {
	at := len(b)
	b = k.appendTo(appendU64(b, 0))
	binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	return b
}

// appendResult appends every field of a Result to the digest input, in
// declaration order.  New Result fields must be added here (and
// hashedResultFields bumped).
func appendResult(b []byte, r *core.Result) []byte {
	b = appendStr(b, r.Label)
	b = appendStr(b, r.Benchmark)
	b = appendStr(b, r.Technique)
	b = appendU64(b, r.TotalL2Bytes)
	b = appendU64(b, uint64(r.Cycles))
	b = appendU64(b, r.Instructions)
	b = appendF64(b, r.IPC)
	b = appendU64(b, uint64(len(r.PerCoreIPC)))
	for _, v := range r.PerCoreIPC {
		b = appendF64(b, v)
	}
	b = appendF64(b, r.L2OccupationRate)
	b = appendF64(b, r.L2MissRate)
	b = appendU64(b, r.L2Accesses)
	b = appendU64(b, r.L2Misses)
	b = appendF64(b, r.AMAT)
	b = appendF64(b, r.L1MissRate)
	b = appendU64(b, r.MemoryBytes)
	b = appendF64(b, r.MemoryBandwidth)
	b = appendF64(b, r.BusUtilization)
	b = appendF64(b, r.Energy.CoreDynamic)
	b = appendF64(b, r.Energy.CoreLeakage)
	b = appendF64(b, r.Energy.L1Dynamic)
	b = appendF64(b, r.Energy.L1Leakage)
	b = appendF64(b, r.Energy.L2Dynamic)
	b = appendF64(b, r.Energy.L2Leakage)
	b = appendF64(b, r.Energy.Bus)
	b = appendF64(b, r.Energy.DecayOverhead)
	b = appendF64(b, r.EnergyJ)
	// Length-prefixed like PerCoreIPC: FinalTempsC is variable-length (the
	// floorplan grows with the core count), and an unprefixed stream would
	// let a value slide across the field boundary without changing the hash.
	b = appendU64(b, uint64(len(r.FinalTempsC)))
	for _, t := range r.FinalTempsC {
		b = appendF64(b, t)
	}
	b = appendF64(b, r.MaxTempC)
	b = appendU64(b, r.TurnOffRequests)
	b = appendU64(b, r.TurnOffsCompleted)
	b = appendU64(b, r.TurnOffWritebacks)
	b = appendU64(b, r.TurnOffL1Invalidations)
	b = appendU64(b, r.ProtocolInvalidations)
	b = appendU64(b, r.DecayInducedMisses)
	return appendU64(b, r.BackInvalidations)
}

// digestBufSize is the initial capacity of Digest's per-run buffer: one
// key plus one result of an 8-core run fit without growing it.
const digestBufSize = 512

// Digest hashes every run of the sweep in stable key order and returns the
// hex SHA-256.  Two sweeps digest equal iff they hold bit-identical results
// under the same keys.  Each run — its length-prefixed key, then its
// result — is appended to one reused buffer and written to the hash in one
// call: the byte stream is the field-by-field one the recorded digests were
// taken over, and the number of allocations does not grow with the sweep.
func (s *Sweep) Digest() string {
	h := sha256.New()
	buf := make([]byte, 0, digestBufSize)
	for _, pos := range s.sorted {
		buf = appendKey(buf[:0], s.keys[pos])
		buf = appendResult(buf, &s.res[pos])
		h.Write(buf)
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// Digest returns a hex SHA-256 identifying everything that determines this
// Options' results: the full base system, the axes, scale and seed.  Two
// Options digest equal iff a job key means the same simulation under both —
// the property the content-addressed result cache keys on.  The shard slice
// chooses which jobs run, not what a job computes, so it is encoded as zero:
// a shard's records then serve the unsharded sweep (`leaksweep -merge`), and
// the fields stay in the encoding so that no digest, and no key of an
// existing store, changes.
func (o Options) Digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// JSON field order is struct declaration order, so the encoding — and
	// therefore the digest — is deterministic.
	err := enc.Encode(struct {
		Base         config.System
		Benchmarks   []string
		CacheSizesMB []int
		Techniques   []decay.Spec
		Scale        float64
		Seed         uint64
		ShardIndex   int // always 0: the shard slice is not hashed
		ShardCount   int // always 0
	}{o.Base, o.Benchmarks, o.CacheSizesMB, o.Techniques, o.Scale, o.Seed, 0, 0})
	if err != nil {
		// config.System is a plain data struct; encoding it cannot fail
		// short of a programming error, which should not be silent.
		panic(fmt.Sprintf("experiment: options digest encoding failed: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}
