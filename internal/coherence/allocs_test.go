package coherence

import (
	"runtime"
	"testing"

	"cmpleak/internal/sim"
)

// l1InitBytesPerLine is the host-memory budget of one L1's Init per
// simulated L1 line.  A write-through L1 holds only a tag store (an 8-byte
// tag per line, plus a valid mask and a packed LRU word per set) and its
// MSHR, write buffer and callbacks; it carries no per-line power or decay
// state, which would add at least 3 bytes per line.
const l1InitBytesPerLine = 18

// TestL1InitBytesPerLine guards the L1's per-line layout: the bytes a new
// controller's Init allocates for the default 32 KB L1, per simulated line,
// stay within l1InitBytesPerLine.
func TestL1InitBytesPerLine(t *testing.T) {
	cfg := DefaultL1Config("L1D-0")
	lines := cfg.Cache.NumLines()
	eng := sim.NewEngine()
	l := new(L1Controller)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.Init(0, eng, cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	perLine := float64(after.TotalAlloc-before.TotalAlloc) / float64(lines)
	if perLine > l1InitBytesPerLine {
		t.Errorf("L1 Init allocates %.2f host bytes per simulated line (%d lines), budget %d",
			perLine, lines, l1InitBytesPerLine)
	}
	t.Logf("%.2f host bytes per simulated L1 line", perLine)
}
