package main

// Crash-resume integration tests: a real leaksweep subprocess is killed
// (SIGKILL — no cleanup of any kind) or interrupted (SIGINT) mid-sweep with
// -cache, the same command is rerun, and its stdout must be byte-identical
// to an uninterrupted run.  The subprocess is this test binary re-executed
// with LEAKSWEEP_RUN_MAIN=1, so no separate build step is needed.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"cmpleak"
)

func TestMain(m *testing.M) {
	if os.Getenv("LEAKSWEEP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepArgs is a small (8-job) but real sweep: one benchmark, one size,
// the full paper technique set, heavily scaled down.
func sweepArgs(extra ...string) []string {
	args := []string{"-benchmarks", "WATER-NS", "-sizes", "1", "-scale", "0.005",
		"-seed", "7", "-jobs", "2", "-quiet"}
	return append(args, extra...)
}

// runMain executes this test binary as leaksweep.
func runMain(t *testing.T, args []string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LEAKSWEEP_RUN_MAIN=1")
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return outBuf.String(), errBuf.String(), code
}

// waitForCacheRecord polls the cache directory until a segment holds more
// than its 8-byte magic, i.e. at least part of one record has been written.
func waitForCacheRecord(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.cas"))
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err == nil && fi.Size() > 8 {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("cache %s never received a record", dir)
}

var reusedRE = regexp.MustCompile(`cache: (\d+) job\(s\) reused`)

// reusedJobs parses the cache summary line of a run's stderr.
func reusedJobs(t *testing.T, stderr string) int {
	t.Helper()
	m := reusedRE.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no cache summary on stderr:\n%s", stderr)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestCrashResumeByteIdentical is the end-to-end resume proof: SIGKILL a
// caching sweep mid-run, rerun the same command, and compare stdout byte
// for byte against an uninterrupted run.
func TestCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	wantOut, _, code := runMain(t, sweepArgs())
	if code != 0 {
		t.Fatalf("reference run exited %d", code)
	}
	if !strings.Contains(wantOut, "Figure") {
		t.Fatalf("reference run produced no report:\n%s", wantOut)
	}

	dir := filepath.Join(t.TempDir(), "cache")
	args := sweepArgs("-cache", dir)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LEAKSWEEP_RUN_MAIN=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as a record is being written but (hopefully) before the
	// sweep finishes.  If the process wins the race and completes, the
	// rerun below simply reuses everything — the assertion holds either way.
	waitForCacheRecord(t, dir)
	cmd.Process.Kill() // SIGKILL: no flush, no handler, nothing
	cmd.Wait()

	store, err := cmpleak.OpenResultCache(dir, cmpleak.ResultCacheOptions{})
	if err != nil {
		t.Fatalf("cache unreadable after SIGKILL: %v", err)
	}
	cached := store.Stats().Entries
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if cached < 1 {
		t.Fatalf("cache holds %d records after SIGKILL, want at least 1", cached)
	}
	t.Logf("killed with %d of 8 jobs cached", cached)

	gotOut, gotErr, code := runMain(t, args)
	if code != 0 {
		t.Fatalf("rerun exited %d:\n%s", code, gotErr)
	}
	if reused := reusedJobs(t, gotErr); reused < cached {
		t.Fatalf("rerun reused %d job(s), want at least the %d cached before the kill:\n%s", reused, cached, gotErr)
	}
	if gotOut != wantOut {
		t.Fatalf("resumed stdout diverged from the uninterrupted run\n--- want ---\n%s\n--- got ---\n%s", wantOut, gotOut)
	}
}

// TestCacheWarmRunByteIdentical runs the same sweep twice over one -cache
// directory: the warm run must reuse every job (its summary says so) and
// print byte-identical stdout.
func TestCacheWarmRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := filepath.Join(t.TempDir(), "cache")
	coldOut, coldErr, code := runMain(t, sweepArgs("-cache", dir))
	if code != 0 {
		t.Fatalf("cold run exited %d:\n%s", code, coldErr)
	}
	if !strings.Contains(coldErr, "cache: 0 job(s) reused, 8 result(s) recorded") {
		t.Fatalf("cold run summary missing:\n%s", coldErr)
	}
	warmOut, warmErr, code := runMain(t, sweepArgs("-cache", dir))
	if code != 0 {
		t.Fatalf("warm run exited %d:\n%s", code, warmErr)
	}
	if !strings.Contains(warmErr, "cache: 8 job(s) reused, 0 result(s) recorded") {
		t.Fatalf("warm run did not reuse all 8 jobs:\n%s", warmErr)
	}
	if warmOut != coldOut {
		t.Fatalf("warm stdout diverged from cold run\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}
	// A different seed is a different options digest: nothing may be reused.
	otherArgs := sweepArgs("-cache", dir)
	for i, a := range otherArgs {
		if a == "-seed" {
			otherArgs[i+1] = "8"
		}
	}
	_, otherErr, code := runMain(t, otherArgs)
	if code != 0 {
		t.Fatalf("other-seed run exited %d:\n%s", code, otherErr)
	}
	if !strings.Contains(otherErr, "cache: 0 job(s) reused, 8 result(s) recorded") {
		t.Fatalf("other-seed run reused foreign results:\n%s", otherErr)
	}
}

func TestCacheRefusedWithMerge(t *testing.T) {
	_, stderr, code := runMain(t, []string{"-merge", "nope*.json", "-cache", "c"})
	if code == 0 {
		t.Fatal("-merge -cache accepted")
	}
	if !strings.Contains(stderr, "-cache") {
		t.Fatalf("error does not mention -cache:\n%s", stderr)
	}
}

// TestSigintGracefulShutdown sends SIGINT mid-sweep: the process must exit
// 130, flush the cache, and print the original command to rerun unchanged;
// rerunning it completes the sweep from the cache.
func TestSigintGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := filepath.Join(t.TempDir(), "cache")
	// -jobs 1 stretches the run so the signal lands before completion.
	args := sweepArgs("-cache", dir)
	for i, a := range args {
		if a == "-jobs" {
			args[i+1] = "1"
		}
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LEAKSWEEP_RUN_MAIN=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitForCacheRecord(t, dir)
	cmd.Process.Signal(syscall.SIGINT)
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if err == nil {
		t.Skip("sweep finished before the signal landed")
	}
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted run exited %v, want code 130\n%s", err, errBuf.String())
	}
	rerun := "\n  " + strings.Join(append([]string{os.Args[0]}, args...), " ") + "\n"
	for _, want := range []string{"canceled", "resume by rerunning", rerun} {
		if !strings.Contains(errBuf.String(), want) {
			t.Fatalf("shutdown message missing %q:\n%s", want, errBuf.String())
		}
	}
	// The same command completes the sweep from the flushed cache.
	gotOut, gotErr, code := runMain(t, args)
	if code != 0 {
		t.Fatalf("rerun after SIGINT exited %d:\n%s", code, gotErr)
	}
	if reusedJobs(t, gotErr) < 1 {
		t.Fatalf("rerun after SIGINT reused nothing:\n%s", gotErr)
	}
	if !strings.Contains(gotOut, "Figure") {
		t.Fatal("rerun after SIGINT produced no report")
	}
}

// twoCellScenario expands to two cells (2- and 4-core) of two jobs each.
const twoCellScenario = `{
  "version": 1,
  "name": "tiny",
  "benchmarks": ["FMM"],
  "l2_sizes_mb": [1],
  "techniques": ["decay:8K"],
  "core_counts": [2, 4],
  "scale": 0.005
}`

// TestScenarioCacheWarmRunByteIdentical runs a two-cell scenario cold and
// then warm over one -cache: the warm run reuses every job, prints
// byte-identical stdout, and rewrites identical per-cell -out files.
func TestScenarioCacheWarmRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.json")
	if err := os.WriteFile(path, []byte(twoCellScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := cmpleak.ParseScenario([]byte(twoCellScenario))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sc.Expand(cmpleak.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("scenario expands to %d cells, want 2", len(cells))
	}
	out := filepath.Join(dir, "res.json")
	args := []string{"-scenario", path, "-cache", filepath.Join(dir, "cache"), "-out", out, "-jobs", "2", "-quiet"}

	run := func(summary string) (string, map[string][]byte) {
		stdout, stderr, code := runMain(t, args)
		if code != 0 {
			t.Fatalf("run exited %d:\n%s", code, stderr)
		}
		if !strings.Contains(stderr, summary) {
			t.Fatalf("stderr lacks %q:\n%s", summary, stderr)
		}
		files := map[string][]byte{}
		for _, c := range cells {
			name := cellOutPath(out, c.Name, true)
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("cell %s: %v", c.Name, err)
			}
			files[name] = data
			if !strings.Contains(stdout, "== "+c.Name+" ==") {
				t.Fatalf("stdout lacks the banner of cell %s", c.Name)
			}
		}
		return stdout, files
	}
	coldOut, coldFiles := run("cache: 0 job(s) reused, 4 result(s) recorded")
	warmOut, warmFiles := run("cache: 4 job(s) reused, 0 result(s) recorded")
	if warmOut != coldOut {
		t.Fatalf("warm stdout diverged from cold run\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}
	for name, data := range coldFiles {
		if !bytes.Equal(warmFiles[name], data) {
			t.Fatalf("warm run rewrote %s with different bytes", name)
		}
	}
}

// TestDuplicateAxisValuesRefused: repeated -benchmarks or -sizes entries
// used to multiply the simulated jobs and print duplicate report columns;
// they are now a named error with exit status 1 and no report.
func TestDuplicateAxisValuesRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-benchmarks", "FMM,FMM", "-sizes", "1,1", "-scale", "0.005", "-quiet"},
		{"-benchmarks", "FMM", "-sizes", "1,2,1", "-scale", "0.005", "-quiet"},
	} {
		stdout, stderr, code := runMain(t, args)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1\nstderr:\n%s", args, code, stderr)
		}
		if !strings.Contains(stderr, "twice") {
			t.Errorf("%v: stderr does not name the repeated value:\n%s", args, stderr)
		}
		if stdout != "" {
			t.Errorf("%v: printed a report:\n%s", args, stdout)
		}
	}
}
