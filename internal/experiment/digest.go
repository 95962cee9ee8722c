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
	"hash"
	"math"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
)

// hashedResultFields is the number of core.Result struct fields hashResult
// folds into the digest; TestGoldenDigestCoversAllResultFields fails when
// Result grows past it, so the digest cannot silently lose coverage.
const hashedResultFields = 28

// hashU64 / hashF64 / hashStr write one field into the digest in a fixed
// byte order; floats go in as IEEE-754 bits so the comparison is exact.
func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashF64(h hash.Hash, v float64) { hashU64(h, math.Float64bits(v)) }

func hashStr(h hash.Hash, s string) {
	hashU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

// hashResult folds every field of a Result into the digest, in declaration
// order.  New Result fields must be added here (and hashedResultFields
// bumped).
func hashResult(h hash.Hash, r core.Result) {
	hashStr(h, r.Label)
	hashStr(h, r.Benchmark)
	hashStr(h, r.Technique)
	hashU64(h, r.TotalL2Bytes)
	hashU64(h, uint64(r.Cycles))
	hashU64(h, r.Instructions)
	hashF64(h, r.IPC)
	hashU64(h, uint64(len(r.PerCoreIPC)))
	for _, v := range r.PerCoreIPC {
		hashF64(h, v)
	}
	hashF64(h, r.L2OccupationRate)
	hashF64(h, r.L2MissRate)
	hashU64(h, r.L2Accesses)
	hashU64(h, r.L2Misses)
	hashF64(h, r.AMAT)
	hashF64(h, r.L1MissRate)
	hashU64(h, r.MemoryBytes)
	hashF64(h, r.MemoryBandwidth)
	hashF64(h, r.BusUtilization)
	hashF64(h, r.Energy.CoreDynamic)
	hashF64(h, r.Energy.CoreLeakage)
	hashF64(h, r.Energy.L1Dynamic)
	hashF64(h, r.Energy.L1Leakage)
	hashF64(h, r.Energy.L2Dynamic)
	hashF64(h, r.Energy.L2Leakage)
	hashF64(h, r.Energy.Bus)
	hashF64(h, r.Energy.DecayOverhead)
	hashF64(h, r.EnergyJ)
	// Length-prefixed like PerCoreIPC: FinalTempsC is variable-length (the
	// floorplan grows with the core count), and an unprefixed stream would
	// let a value slide across the field boundary without changing the hash.
	hashU64(h, uint64(len(r.FinalTempsC)))
	for _, t := range r.FinalTempsC {
		hashF64(h, t)
	}
	hashF64(h, r.MaxTempC)
	hashU64(h, r.TurnOffRequests)
	hashU64(h, r.TurnOffsCompleted)
	hashU64(h, r.TurnOffWritebacks)
	hashU64(h, r.TurnOffL1Invalidations)
	hashU64(h, r.ProtocolInvalidations)
	hashU64(h, r.DecayInducedMisses)
	hashU64(h, r.BackInvalidations)
}

// Digest hashes every run of the sweep in stable key order and returns the
// hex SHA-256.  Two sweeps digest equal iff they hold bit-identical results
// under the same keys.
func (s *Sweep) Digest() string {
	h := sha256.New()
	for _, k := range s.Keys() {
		hashStr(h, k.String())
		r, _ := s.Result(k.Benchmark, k.SizeMB, k.Technique)
		hashResult(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Digest returns a hex SHA-256 identifying everything that determines this
// Options' results: the full base system, the axes, scale, seed and shard
// slice.  Two Options digest equal iff a job key means the same simulation
// under both — the property the content-addressed result cache keys on.
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
		ShardIndex   int
		ShardCount   int
	}{o.Base, o.Benchmarks, o.CacheSizesMB, o.Techniques, o.Scale, o.Seed, o.ShardIndex, o.ShardCount})
	if err != nil {
		// config.System is a plain data struct; encoding it cannot fail
		// short of a programming error, which should not be silent.
		panic(fmt.Sprintf("experiment: options digest encoding failed: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}
