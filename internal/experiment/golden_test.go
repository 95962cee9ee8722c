package experiment

// Golden fixed-seed digests: SHA-256 over every field of every core.Result
// produced by reduced sweeps (see digest.go).  Run-to-run identity
// (determinism_test.go) only proves the simulator agrees with itself; these
// tests pin the results to recorded values, so a data-plane refactor that
// silently changes timing, energy integration, or decay behaviour fails
// tier-1 instead of shipping a plausible-but-different simulator.
//
// If a change is *meant* to alter results (new model, fixed bug), update the
// recorded digests with the values printed by:
//
//	go test ./internal/experiment -run 'TestGolden' -v
//
// and say so in the commit message.

import (
	"reflect"
	"testing"

	"cmpleak/internal/core"
	"cmpleak/internal/decay"
)

// goldenSweepDigest is the digest of goldenOptions() results.  The original
// anchor 0bd73259..., recorded from the pre-flat-array implementation
// (PR 1), survived every data-plane refactor through PR 5's N-core thermal
// floorplan; the constant changed only because the digest *format* gained a
// FinalTempsC length prefix (digest.go) once that field became
// variable-length — the results themselves were verified bit-identical
// under the old format immediately before the re-record.
//
// The recorded value lives in anchor.go as GoldenAnchor, because the
// persistent result cache stamps records with it: re-recording the golden
// digest both updates this test's expectation and invalidates every cached
// result simulated under the old behaviour.
const goldenSweepDigest = GoldenAnchor

// goldenOptions is determinismOptions plus the adaptive technique, so the
// digest also pins the adaptive kind's tick and adaptation behaviour.
func goldenOptions() Options {
	opts := determinismOptions()
	opts.Techniques = append(opts.Techniques,
		decay.Spec{Kind: decay.KindAdaptive, DecayCycles: 8 * 1024})
	return opts
}

func TestGoldenSweepDigest(t *testing.T) {
	sweep, err := runSweep(goldenOptions(), Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	got := sweep.Digest()
	t.Logf("sweep digest: %s", got)
	if got != goldenSweepDigest {
		t.Fatalf("fixed-seed sweep digest changed:\n  got:  %s\n  want: %s\n"+
			"Results are no longer bit-for-bit identical to the recorded run. "+
			"If the change is intentional, update goldenSweepDigest.", got, goldenSweepDigest)
	}
}

// goldenCoreCountDigests pins reduced-scale runs of every decay technique at
// 2, 4 and 8 cores, recorded when the thermal floorplan was generalised from
// the fixed 4-core layout (PR 5).  The 4-core row is redundant with the main
// golden digest by construction (same engine paths), but keeps the matrix
// self-contained; the 2- and 8-core rows pin the core-count axis the
// scenario layer sweeps, so a floorplan or per-core-split regression on
// non-paper core counts cannot ship silently.
var goldenCoreCountDigests = map[int]string{
	2: "c188b7b9bbed2e88d7e2acbd5f18c8534e130028a25d3e5b4dadd17841a9b05a",
	4: "7aaa1672ac6dfe7502924f09fba30c13ba147d43d6f1af002ff40963ee1f1772",
	8: "caea71c8fdfaac90d3442a1c94d54aead7a73ca5c8c09fe3b369656960778902",
}

// coreCountOptions is a one-benchmark, one-size slice of the sweep covering
// every technique family, run at the given core count.
func coreCountOptions(cores int) Options {
	opts := DefaultOptions(0.01)
	opts.Base = opts.Base.WithCores(cores)
	opts.Benchmarks = []string{"FMM"}
	opts.CacheSizesMB = []int{2}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindProtocol},
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
		{Kind: decay.KindSelectiveDecay, DecayCycles: 8 * 1024},
		{Kind: decay.KindAdaptive, DecayCycles: 8 * 1024},
	}
	opts.Seed = 7
	return opts
}

func TestGoldenCoreCountMatrix(t *testing.T) {
	for cores, want := range goldenCoreCountDigests {
		sweep, err := runSweep(coreCountOptions(cores), Parallelism{})
		if err != nil {
			t.Fatalf("%d cores: %v", cores, err)
		}
		got := sweep.Digest()
		t.Logf("%d-core digest: %s", cores, got)
		if got != want {
			t.Errorf("%d-core fixed-seed digest changed:\n  got:  %s\n  want: %s\n"+
				"If the change is intentional, update goldenCoreCountDigests.", cores, got, want)
		}
	}
}

// TestGoldenDigestCoversAllResultFields fails when core.Result grows a field
// appendResult does not cover, so the digest cannot silently lose coverage.
func TestGoldenDigestCoversAllResultFields(t *testing.T) {
	// appendResult covers: 4 identity fields, Cycles, Instructions, IPC,
	// PerCoreIPC, 6 rate/count fields, 3 bandwidth fields, Energy, EnergyJ,
	// FinalTempsC, MaxTempC and 7 technique counters = 28 struct fields.
	if n := reflect.TypeOf(core.Result{}).NumField(); n != hashedResultFields {
		t.Fatalf("core.Result has %d fields but appendResult covers %d; "+
			"extend appendResult and update hashedResultFields", n, hashedResultFields)
	}
}

// goldenDeferralDigest pins a deferral-heavy corner the main golden sweep
// barely reaches: 2K decay intervals on a 1 MB L2 at scale 0.05.  WATER-NS
// decay:2K alone re-requests 358 deferred turn-offs and starts 9 213 TD
// write-backs, so the decay tick's re-request of deferred lines and its
// handling of lines in TD are both on the digest.
const goldenDeferralDigest = "f4ea21b03074efc56e2fb36078a4d7dbe08396e984bf0b8991784200e55621af"

func deferralOptions() Options {
	opts := DefaultOptions(0.05)
	opts.Benchmarks = []string{"WATER-NS", "mpeg2enc"}
	opts.CacheSizesMB = []int{1}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindDecay, DecayCycles: 2 * 1024},
		{Kind: decay.KindSelectiveDecay, DecayCycles: 2 * 1024},
		{Kind: decay.KindAdaptive, DecayCycles: 2 * 1024},
	}
	return opts
}

func TestGoldenDeferralDigest(t *testing.T) {
	sweep, err := runSweep(deferralOptions(), Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	got := sweep.Digest()
	t.Logf("deferral digest: %s", got)
	if got != goldenDeferralDigest {
		t.Fatalf("deferral-heavy digest changed:\n  got:  %s\n  want: %s\n"+
			"If the change is intentional, update goldenDeferralDigest.", got, goldenDeferralDigest)
	}
}
