// Package service implements the leakserved sweep service: an HTTP/JSON
// front end that accepts declarative scenario files, expands them into
// sweep cells, dedups their jobs against the persistent content-addressed
// result cache (internal/resultcache), and queues the misses through one
// shared in-process worker pool.  Progress streams per cell as NDJSON or
// SSE, and completed runs serve the exact report bytes `leaksweep` prints —
// both sit on experiment.WriteReport, so equality holds by construction.
//
// One executor goroutine drains a bounded two-class run queue (high and
// normal priority, FIFO within a class, with aging so a steady stream of
// high-priority submissions cannot starve normal ones) and runs one
// scenario at a time through experiment.RunParallelAllContext — the
// service's concurrency knob is the pool's worker count, not the number of
// simultaneously executing runs, so job-level determinism and the
// byte-identical-output guarantee carry over unchanged.
//
// A completed cell's output — its Sweep and that sweep's digest — is one
// shared, immutable value keyed by the cell's options digest, which fixes
// every result of an unsharded cell (the result cache's contract).  A run
// whose cell was already completed by a live earlier run splices that
// output in and neither reads the store nor simulates.  A run that needs no
// pool work at all — every cell completed by a live run — finishes inside
// Submit and is never queued; a run whose cells become all completed while
// it waits skips the pool.  An output renders each report variant once and
// serves the stored bytes to every later request.  The index holds weak
// pointers: the runs own their outputs, and a dead entry is a miss.
//
// Submit remembers the expansion of each of the last memoBodies distinct
// bodies, keyed by the body's SHA-256, so a repeated body is neither parsed
// nor expanded nor digested again; runs of one body share that expansion
// read-only.  A body naming a file ("trace:<path>") is expanded every time:
// Expand must find and verify the file on this machine.
//
// Shutdown is graceful: Close stops admissions, cancels the running
// scenario (in-flight jobs finish, queued jobs are skipped — the pool's
// cancellation contract), marks still-queued runs canceled, and syncs the
// result store.  Every completed job was already written through to the
// cache, so resubmitting the same scenario resumes from cache hits rather
// than resimulating.
package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"
	"weak"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/experiment"
	"cmpleak/internal/resultcache"
	"cmpleak/internal/scenario"
)

// Config configures a Server.
type Config struct {
	// Workers is the shared pool's worker count (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many runs may wait behind the executing one;
	// submissions beyond it are refused with 503 (0 = default 8).
	QueueDepth int
	// MaxBodyBytes bounds an uploaded scenario body (0 = default 1 MiB).
	MaxBodyBytes int64
	// Store, when non-nil, is the persistent result cache: every submitted
	// cell's jobs are dedup'd against it before queueing, and every
	// completed job is written through to it.
	Store *resultcache.Store
}

const (
	defaultQueueDepth   = 8
	defaultMaxBodyBytes = 1 << 20
)

// State is a run's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// normAgingLimit bounds priority starvation: after this many consecutive
// high-priority runs execute past a waiting normal one, the normal run goes
// next regardless.
const normAgingLimit = 4

// Event is one entry of a run's progress log, streamed by /events.
type Event struct {
	// Seq numbers events within the run, from 1.
	Seq int `json:"seq"`
	// Type is "state" (lifecycle transition) or "job" (one job finished).
	Type string `json:"type"`
	// State accompanies type "state".
	State State `json:"state,omitempty"`
	// Cell, Key, Done and Total accompany type "job" (cache-satisfied jobs
	// never appear: the pool excludes them from Done/Total).
	Cell  string          `json:"cell,omitempty"`
	Key   *experiment.Key `json:"key,omitempty"`
	Done  int             `json:"done,omitempty"`
	Total int             `json:"total,omitempty"`
	// Error accompanies a terminal "state" event of a failed run.
	Error string `json:"error,omitempty"`
}

// CellStatus describes one expanded cell of a run.
type CellStatus struct {
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Jobs   int    `json:"jobs"`
}

// RunStatus is the JSON shape of GET /v1/runs/{id}.
type RunStatus struct {
	ID       string       `json:"id"`
	Name     string       `json:"name,omitempty"`
	State    State        `json:"state"`
	Priority string       `json:"priority"`
	Cells    []CellStatus `json:"cells"`
	// JobsTotal counts every job of every cell; Cached how many were served
	// without simulating (result cache or a shared cell); JobsDone how many
	// have simulated.
	JobsTotal int    `json:"jobs_total"`
	Cached    int    `json:"cached"`
	JobsDone  int    `json:"jobs_done"`
	Error     string `json:"error,omitempty"`
	// ResultDigests are the completed cells' sweep digests (one per cell, in
	// cell order; present once the run is done).  They pin the run's results
	// bit for bit — a client can compare them against a serial `leaksweep`
	// run's digests, or across daemons.
	ResultDigests []string `json:"result_digests,omitempty"`
	// QueuedAt, StartedAt and FinishedAt are the run's lifecycle
	// transitions; each is absent until the run reaches it.
	QueuedAt   time.Time `json:"queued_at,omitzero"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
}

// expansion is one scenario body's expansion: its name, its cells, and each
// cell's options digest and job count, computed once.  It is immutable: the
// runs of one body share it, and status reads, which the executor's
// callbacks wait behind under s.mu, only copy from it.
type expansion struct {
	name     string
	cells    []scenario.Cell
	digests  []string
	cellJobs []int // per cell, Options.NumJobs()
	jobs     int
}

// newExpansion digests each of cells and counts its jobs.
func newExpansion(name string, cells []scenario.Cell) *expansion {
	x := &expansion{
		name:     name,
		cells:    cells,
		digests:  make([]string, len(cells)),
		cellJobs: make([]int, len(cells)),
	}
	for i := range cells {
		x.digests[i] = cells[i].Options.Digest()
		x.cellJobs[i] = cells[i].Options.NumJobs()
		x.jobs += x.cellJobs[i]
	}
	return x
}

// memoBodies bounds the expansion memo: it holds the expansions of at most
// this many distinct bodies and forgets the oldest first.
const memoBodies = 64

// expansionMemo remembers the expansions of recent scenario bodies by the
// SHA-256 of the body.
type expansionMemo struct {
	mu     sync.Mutex
	byBody map[[sha256.Size]byte]*expansion
	fifo   [memoBodies][sha256.Size]byte // keys in insertion order, a ring
	next   int                           // the ring slot the next key takes
	reused uint64                        // lookups that found an expansion
}

// get returns the remembered expansion of the body with this key, or nil.
func (m *expansionMemo) get(key [sha256.Size]byte) *expansion {
	m.mu.Lock()
	defer m.mu.Unlock()
	x := m.byBody[key]
	if x != nil {
		m.reused++
	}
	return x
}

// put remembers x under key, evicting the oldest body when the memo is
// full, and returns the expansion now remembered under key: a concurrent
// submission of the same body may have put its own first.
func (m *expansionMemo) put(key [sha256.Size]byte, x *expansion) *expansion {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.byBody[key]; old != nil {
		return old
	}
	if len(m.byBody) == memoBodies {
		delete(m.byBody, m.fifo[m.next])
	}
	m.fifo[m.next] = key
	m.next = (m.next + 1) % memoBodies
	m.byBody[key] = x
	return x
}

// run is the server-side state of one submitted scenario.
type run struct {
	*expansion // shared with every run of the same body; never modified
	id         string
	high       bool
	state      State
	cached     int
	jobsDone   int
	errMsg     string
	events     []Event
	// outputs holds one output per cell once the run is done.
	outputs []*cellOutput
	// queuedAt, startedAt and finishedAt stamp the state transitions.
	queuedAt, startedAt, finishedAt time.Time
	// changed is closed and replaced on every event append; streamers grab
	// the current channel under mu and wait on it.
	changed chan struct{}
	// cancel interrupts the run while executing (nil otherwise).
	cancel context.CancelFunc
}

// cellOutput is one completed cell's output.  Its sweep and digest are
// immutable once published: runs of the same options digest share it, and
// their report handlers read it concurrently.  Each report variant is
// rendered once, by its first request, and every later request writes the
// stored bytes; they die with the output.
type cellOutput struct {
	sweep   *experiment.Sweep
	digest  string // sweep.Digest()
	reports [numReportVariants]renderedReport
}

// renderedReport is one variant's rendering of a cell's report.
type renderedReport struct {
	once sync.Once
	body []byte // never modified once rendered
	err  error
}

// runFunc executes one batch through the pool — a seam so in-package tests
// (and the HTTP fuzzer) can swap the simulator out.
type runFunc func(ctx context.Context, cells []experiment.NamedOptions, p experiment.Parallelism) ([]*experiment.Sweep, error)

// Server is the sweep service.  Create with New, mount Handler, and Close
// on shutdown.
type Server struct {
	cfg  Config
	exec runFunc

	mu        sync.Mutex
	runs      map[string]*run
	order     []string // submission order, for GET /v1/runs
	queueHigh []*run
	queueNorm []*run
	normWait  int // consecutive high-priority runs executed past a waiting normal one
	nextID    int
	closed    bool
	// outputs indexes completed cells by options digest.  It never keeps
	// an output alive: the runs that hold it do.
	outputs map[string]weak.Pointer[cellOutput]
	memo    expansionMemo

	wake     chan struct{} // buffered 1: kicks the executor
	execDone chan struct{}

	start            time.Time
	jobsDone         uint64
	cacheHits        uint64
	cacheLookups     uint64
	cellsShared      uint64
	runsDoneAtSubmit uint64
}

// New starts a Server (its executor goroutine runs until Close).
func New(cfg Config) *Server {
	return newServer(cfg, experiment.RunParallelAllContext)
}

func newServer(cfg Config, exec runFunc) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	s := &Server{
		cfg:      cfg,
		exec:     exec,
		runs:     make(map[string]*run),
		outputs:  make(map[string]weak.Pointer[cellOutput]),
		memo:     expansionMemo{byBody: make(map[[sha256.Size]byte]*expansion)},
		wake:     make(chan struct{}, 1),
		execDone: make(chan struct{}),
		start:    time.Now(),
	}
	go s.executor()
	return s
}

// errQueueFull refuses a submission when the run queue is at QueueDepth.
var errQueueFull = errors.New("service: run queue is full")

// errClosed refuses submissions during shutdown.
var errClosed = errors.New("service: shutting down")

// Submit parses, expands and admits one scenario body.  A run whose every
// cell a live earlier run completed is done when Submit returns; any other
// run is queued.  Scenario validation errors come back wrapped in the
// scenario package's sentinel taxonomy (the HTTP layer maps them to 400s); a
// full queue returns errQueueFull.
func (s *Server) Submit(body []byte, high bool) (RunStatus, error) {
	x, err := s.expand(body)
	if err != nil {
		return RunStatus{}, err
	}
	r := &run{expansion: x, high: high, state: StateQueued, changed: make(chan struct{})}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return RunStatus{}, errClosed
	}
	// A run with no pool work finishes here, so it takes no queue slot.
	outs, pending := s.sharedLocked(r)
	if len(pending) > 0 && len(s.queueHigh)+len(s.queueNorm) >= s.cfg.QueueDepth {
		return RunStatus{}, errQueueFull
	}
	s.nextID++
	r.id = fmt.Sprintf("r-%06d", s.nextID)
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	r.queuedAt = time.Now()
	s.appendEventLocked(r, Event{Type: "state", State: StateQueued})
	if len(pending) == 0 {
		s.startLocked(r)
		s.spliceLocked(r, outs)
		r.outputs = outs
		s.finishLocked(r, StateDone, "")
		s.runsDoneAtSubmit++
		return s.statusLocked(r), nil
	}
	if high {
		s.queueHigh = append(s.queueHigh, r)
	} else {
		s.queueNorm = append(s.queueNorm, r)
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return s.statusLocked(r), nil
}

// expand parses and expands body, or returns the remembered expansion of
// an identical earlier body.  Only a successful expansion that read no file
// is remembered.
func (s *Server) expand(body []byte) (*expansion, error) {
	key := sha256.Sum256(body)
	if x := s.memo.get(key); x != nil {
		return x, nil
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		return nil, err
	}
	cells, err := sc.Expand(config.Default())
	if err != nil {
		return nil, err
	}
	x := newExpansion(sc.Name, cells)
	if sc.ReadsFiles() {
		return x, nil
	}
	return s.memo.put(key, x), nil
}

// Status returns a run's status snapshot; ok is false for an unknown ID.
func (s *Server) Status(id string) (RunStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return RunStatus{}, false
	}
	return s.statusLocked(r), true
}

// List returns every run's status in submission order.
func (s *Server) List() []RunStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.runs[id]))
	}
	return out
}

// Cancel cancels a queued or running run.  It reports whether the ID exists;
// canceling a terminal run is a harmless no-op.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return false
	}
	switch r.state {
	case StateQueued:
		s.dequeueLocked(r)
		s.finishLocked(r, StateCanceled, "canceled by client")
	case StateRunning:
		// The executor observes the pool's cancellation error and marks the
		// run canceled; completed jobs are already in the cache.
		r.cancel()
	}
	return true
}

func (s *Server) statusLocked(r *run) RunStatus {
	st := RunStatus{
		ID: r.id, Name: r.name, State: r.state,
		Priority:  "normal",
		Cells:     make([]CellStatus, len(r.cells)),
		JobsTotal: r.jobs, Cached: r.cached, JobsDone: r.jobsDone,
		Error:    r.errMsg,
		QueuedAt: r.queuedAt, StartedAt: r.startedAt, FinishedAt: r.finishedAt,
	}
	if r.high {
		st.Priority = "high"
	}
	for i := range r.cells {
		st.Cells[i] = CellStatus{
			Name:   r.cells[i].Name,
			Digest: r.digests[i],
			Jobs:   r.cellJobs[i],
		}
	}
	if r.outputs != nil {
		st.ResultDigests = make([]string, len(r.outputs))
		for i, out := range r.outputs {
			st.ResultDigests[i] = out.digest
		}
	}
	return st
}

// appendEventLocked logs one event and wakes every streamer.
func (s *Server) appendEventLocked(r *run, ev Event) {
	ev.Seq = len(r.events) + 1
	r.events = append(r.events, ev)
	close(r.changed)
	r.changed = make(chan struct{})
}

// startLocked moves a queued run to running.
func (s *Server) startLocked(r *run) {
	r.state = StateRunning
	r.startedAt = time.Now()
	s.appendEventLocked(r, Event{Type: "state", State: StateRunning})
}

// finishLocked moves a run to a terminal state.
func (s *Server) finishLocked(r *run, state State, errMsg string) {
	r.state = state
	r.errMsg = errMsg
	r.cancel = nil
	r.finishedAt = time.Now()
	s.appendEventLocked(r, Event{Type: "state", State: state, Error: errMsg})
}

// dequeueLocked removes a queued run from its class queue.
func (s *Server) dequeueLocked(r *run) {
	q := &s.queueNorm
	if r.high {
		q = &s.queueHigh
	}
	for i, qr := range *q {
		if qr == r {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// nextLocked picks the next run to execute: high-priority FIFO first, except
// that a normal run which has already waited through normAgingLimit
// consecutive high runs goes first (anti-starvation aging).
func (s *Server) nextLocked() *run {
	var r *run
	switch {
	case len(s.queueNorm) > 0 && (len(s.queueHigh) == 0 || s.normWait >= normAgingLimit):
		r, s.queueNorm = s.queueNorm[0], s.queueNorm[1:]
		s.normWait = 0
	case len(s.queueHigh) > 0:
		r, s.queueHigh = s.queueHigh[0], s.queueHigh[1:]
		if len(s.queueNorm) > 0 {
			s.normWait++
		}
	}
	return r
}

// executor is the single run-execution goroutine: one scenario at a time
// through the shared pool.  It splices in every cell a live earlier run
// completed and runs only the rest; a run whose cells all completed while
// it waited skips the pool but still moves queued -> running -> done.
func (s *Server) executor() {
	defer close(s.execDone)
	for {
		s.mu.Lock()
		r := s.nextLocked()
		if r == nil {
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			<-s.wake
			continue
		}
		s.startLocked(r)
		outs, pending := s.sharedLocked(r)
		s.spliceLocked(r, outs)
		if len(pending) == 0 {
			r.outputs = outs
			s.finishLocked(r, StateDone, "")
			s.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		r.cancel = cancel
		named := make([]experiment.NamedOptions, len(pending))
		for k, i := range pending {
			named[k] = experiment.NamedOptions{Name: r.cells[i].Name, Options: r.cells[i].Options}
		}
		p := s.parallelism(r)
		s.mu.Unlock()

		sweeps, err := s.exec(ctx, named, p)
		cancel()
		if err == nil {
			for k, i := range pending {
				outs[i] = &cellOutput{sweep: sweeps[k]}
				if sweeps[k] != nil { // test stubs may return placeholder batches
					outs[i].digest = sweeps[k].Digest()
				}
			}
		}

		s.mu.Lock()
		switch {
		case err == nil:
			for _, i := range pending {
				if outs[i].sweep != nil {
					s.outputs[outputKey(&r.cells[i], r.digests[i])] = weak.Make(outs[i])
				}
			}
			r.outputs = outs
			s.finishLocked(r, StateDone, "")
		case errors.Is(err, context.Canceled):
			s.finishLocked(r, StateCanceled,
				"canceled; completed jobs are cached — resubmit the scenario to resume")
		default:
			s.finishLocked(r, StateFailed, err.Error())
		}
		s.mu.Unlock()
	}
}

// sharedLocked looks r's cells up in the output index.  It returns one slot
// per cell, filled for each cell a live earlier run completed, and the
// indices of the cells left to run.
func (s *Server) sharedLocked(r *run) (outs []*cellOutput, pending []int) {
	outs = make([]*cellOutput, len(r.cells))
	for i := range r.cells {
		outs[i] = s.outputs[outputKey(&r.cells[i], r.digests[i])].Value()
		if outs[i] == nil {
			pending = append(pending, i)
		}
	}
	return outs, pending
}

// spliceLocked counts the shared outputs sharedLocked found for r: a
// spliced cell's jobs count as served without simulating, like result-cache
// hits.  r takes outs once it is done.
func (s *Server) spliceLocked(r *run, outs []*cellOutput) {
	for i, out := range outs {
		if out == nil {
			continue
		}
		n := uint64(r.cellJobs[i])
		r.cached += r.cellJobs[i]
		s.cacheLookups += n
		s.cacheHits += n
		s.cellsShared++
	}
}

// outputKey is cell c's key in the output index: its options digest.  The
// digest leaves the shard slice out, so it names a cell's results only when
// the cell runs whole — and service cells always do (scenario.Expand leaves
// ShardIndex and ShardCount zero).
func outputKey(c *scenario.Cell, digest string) string {
	if c.Options.ShardIndex != 0 || c.Options.ShardCount != 0 {
		panic(fmt.Sprintf("service: cell %s is sharded (%d/%d); its options digest does not name its results",
			c.Name, c.Options.ShardIndex, c.Options.ShardCount))
	}
	return digest
}

// parallelism builds one run's pool configuration: the shared worker count,
// the cache Reuse hook (counting hits and lookups) and a Progress callback
// that writes each completed job through to the store and logs a job event.
// Called with s.mu held; the returned callbacks take s.mu themselves.
func (s *Server) parallelism(r *run) experiment.Parallelism {
	p := experiment.Parallelism{Workers: s.cfg.Workers}
	digests := make(map[string]string, len(r.cells))
	for i := range r.cells {
		digests[r.cells[i].Name] = r.digests[i]
	}
	if s.cfg.Store != nil {
		p.Reuse = func(cell string, key experiment.Key) (core.Result, bool) {
			res, ok := s.cfg.Store.Get(digests[cell], key)
			s.mu.Lock()
			s.cacheLookups++
			if ok {
				s.cacheHits++
				r.cached++
			}
			s.mu.Unlock()
			return res, ok
		}
	}
	p.Progress = func(ev experiment.JobEvent) {
		if ev.Err == nil && s.cfg.Store != nil {
			if perr := s.cfg.Store.Put(resultcache.Record{
				Cell: ev.Cell, OptionsDigest: digests[ev.Cell], Key: ev.Key, Result: ev.Result,
			}); perr != nil {
				// A cache write failure must not fail the run: the result is
				// already in its sweep slot.  Surface it in the event stream.
				s.mu.Lock()
				s.appendEventLocked(r, Event{Type: "state", State: r.state,
					Error: fmt.Sprintf("cache write: %v", perr)})
				s.mu.Unlock()
			}
		}
		s.mu.Lock()
		if ev.Err == nil {
			r.jobsDone++
			s.jobsDone++
		}
		key := ev.Key
		s.appendEventLocked(r, Event{
			Type: "job", Cell: ev.Cell, Key: &key, Done: ev.Done, Total: ev.Total,
		})
		s.mu.Unlock()
	}
	return p
}

// Close shuts the service down gracefully: admissions stop, the executing
// run is canceled (in-flight jobs finish and are cached; the run reports
// canceled-resumable), queued runs are marked canceled, and the result
// store is synced.  Close returns once the executor has drained.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.execDone
		return nil
	}
	s.closed = true
	for _, q := range [][]*run{s.queueHigh, s.queueNorm} {
		for _, r := range q {
			s.finishLocked(r, StateCanceled,
				"server shut down before the run started; completed cells of earlier runs are cached — resubmit to resume")
		}
	}
	s.queueHigh, s.queueNorm = nil, nil
	var cancel context.CancelFunc
	for _, r := range s.runs {
		if r.state == StateRunning {
			cancel = r.cancel
		}
	}
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-s.execDone
	if s.cfg.Store != nil {
		return s.cfg.Store.Sync()
	}
	return nil
}
