package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call the driver made into the module: name, start, end
// and the span that caused it (0 for none).  Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory until the run ends.  A nil
// *tracer is the untraced pass: every method is a no-op returning 0, so the
// timed code calls it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span that ran from start to end and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// begin opens a span now; end closes it.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// duration is a span's length.
func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// selfTime is a span's duration minus the union of its children's intervals
// (clipped to the span), so a pool span's self time is the time no job ran.
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[id-1]
	var kids [][2]int64
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, [2]int64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	slices.SortFunc(kids, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	covered, reach := int64(0), p.Start
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return p.duration() - time.Duration(covered)
}

// durationsMs returns the durations of the spans called name, in ms.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.duration()))
		}
	}
	return out
}

// appendTo appends the spans as JSON lines, each tagged with the workload and
// seed, to the file at path.
func (t *tracer) appendTo(path, workload string, seed uint64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(struct {
			Workload string `json:"workload"`
			Seed     uint64 `json:"seed"`
			span
		}{workload, seed, s}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
