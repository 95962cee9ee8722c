package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hostFacts describe the machine and build a result came from.
type hostFacts struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func readHostFacts() hostFacts {
	return hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit(),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from ("+dirty" when the
// tree had changes), or "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "unknown" {
		rev += "+dirty"
	}
	return rev
}

// probeRing is a random cyclic permutation of 4 Mi uint32 indices (16 MiB),
// built once per process from a fixed seed.
var probeRing = sync.OnceValue(func() []uint32 {
	const n = 1 << 22
	ring := make([]uint32, n)
	for i := range ring {
		ring[i] = uint32(i)
	}
	// Sattolo's shuffle makes one cycle through every slot; splitmix64 keeps
	// it identical on every host.
	x := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		j := int(z % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
})

// probeSink keeps the probe walk from being optimised away.
var probeSink uint32

// probeNs times a fixed memory walk — 512 Ki dependent loads around
// probeRing — and returns the median over three walks in ns per step.  It
// tells a slow host from a slow commit: it is recorded, never used to
// normalise another metric.
func probeNs() float64 {
	ring := probeRing()
	const steps = 1 << 19
	var walks []float64
	for range 3 {
		i := uint32(0)
		start := time.Now()
		for range steps {
			i = ring[i]
		}
		walks = append(walks, float64(time.Since(start))/steps)
		probeSink += i
	}
	return median(walks)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
