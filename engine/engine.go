// Package engine schedules concurrent clustering jobs over one shared worker
// budget. It is the serving layer the cancellable execution stack was built
// for: a multi-tenant service (many users sweeping parameters, many sensors
// ticking streaming windows) submits each run as a job with its own context,
// priority, and Workers cap, and the Engine admits, queues, and dispatches
// them so that the total parallelism in flight never exceeds the budget —
// instead of every caller spawning an uncapped run and oversubscribing the
// machine.
//
// The model is deliberately small:
//
//   - Admission is bounded. At most MaxQueue jobs wait; beyond that Submit
//     fails fast with ErrQueueFull, which is the backpressure signal a
//     service propagates (HTTP 429, drop the frame, shed the sweep point).
//
//   - Scheduling is FIFO with priorities. Queued jobs run in priority order
//     (higher first), ties in submission order, and the head of the queue is
//     never overtaken: a large job waiting for workers is not starved by
//     small jobs slipping past it (no backfill).
//
//   - Workers are a shared budget. Each job declares its cap via
//     Config.Workers (0 or anything above the budget asks for the whole
//     budget); a job starts only when its cap fits in the unused budget, and
//     runs with exactly that cap. The sum of the caps of running jobs never
//     exceeds Options.Budget.
//
//   - Every job is cancellable. The submit context travels into the run
//     (Clusterer.RunContext / StreamingClusterer.RunContext): cancelling it
//     removes the job from the queue, or unwinds it mid-run at the next
//     phase boundary. QueueTimeout bounds waiting independently of the
//     caller's context.
//
// Jobs target a *pdbscan.Clusterer, *pdbscan.StreamingClusterer, or
// *pdbscan.Hierarchy built by the caller, so the eps-keyed structures and
// arenas those types cache keep amortizing across jobs exactly as they do
// across direct Run calls. Hierarchy jobs run Config.Eps as a CutEps query
// against the prebuilt dendrogram — the cheap way to schedule an eps sweep
// as independent, individually cancellable jobs.
package engine

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pdbscan"
)

// Sentinel errors of the admission queue. Job.Err returns them wrapped in
// nothing — compare with errors.Is.
var (
	// ErrQueueFull is returned by Submit when the admission queue already
	// holds MaxQueue jobs.
	ErrQueueFull = errors.New("engine: admission queue full")
	// ErrQueueTimeout completes a job that waited longer than QueueTimeout
	// without being dispatched.
	ErrQueueTimeout = errors.New("engine: job timed out waiting in queue")
	// ErrClosed is returned by Submit after Close, and completes jobs still
	// queued when Close is called.
	ErrClosed = errors.New("engine: engine closed")
	// ErrBadRequest is returned by Submit when the request does not name
	// exactly one run target.
	ErrBadRequest = errors.New("engine: request must set exactly one of Clusterer, Streaming, or Hierarchy")
)

// Options configures an Engine. The zero value is usable: GOMAXPROCS worker
// budget, a queue of DefaultMaxQueue jobs, no queue timeout.
type Options struct {
	// Budget is the total number of workers shared by all running jobs.
	// <= 0 means runtime.GOMAXPROCS(0).
	Budget int
	// MaxQueue bounds the admission queue (jobs waiting to run). <= 0 means
	// DefaultMaxQueue. Submit returns ErrQueueFull beyond it.
	MaxQueue int
	// QueueTimeout bounds how long a job may wait in the queue before it is
	// rejected with ErrQueueTimeout. <= 0 means no timeout.
	QueueTimeout time.Duration
}

// DefaultMaxQueue is the admission-queue bound applied when Options.MaxQueue
// is not set.
const DefaultMaxQueue = 64

// Request describes one job: a run target (exactly one of Clusterer,
// Streaming, or Hierarchy), its Config, and a scheduling priority.
type Request struct {
	// Clusterer runs Config as a batch job (Clusterer.RunContext).
	Clusterer *pdbscan.Clusterer
	// Streaming runs Config as a streaming tick (StreamingClusterer.
	// RunContext).
	Streaming *pdbscan.StreamingClusterer
	// Hierarchy runs Config.Eps as a dendrogram cut (Hierarchy.
	// CutEpsContext) on a prebuilt hierarchy. Config.Eps must pass the
	// hierarchy's ValidateEps; Config.MinPts must be 0 or the hierarchy's
	// own MinPts (the hierarchy fixes it at build time). Fields that only
	// configure a full run (Method, Rho, Bucketing, ...) are ignored.
	Hierarchy *pdbscan.Hierarchy
	// Config is the run configuration. Config.Workers is the job's worker
	// cap, drawn from the Engine's shared budget while the job runs; 0 (or
	// any value above the budget) requests the whole budget, which
	// serializes the job against everything else. Config.Validate is
	// applied at Submit, before the job can occupy a queue slot.
	Config pdbscan.Config
	// Priority orders queued jobs: higher runs first, ties in submission
	// order. Running jobs are never preempted.
	Priority int
}

// Stats is a snapshot of the Engine's live state and cumulative counters.
type Stats struct {
	// Queued and Running are the current number of jobs waiting and in
	// flight; WorkersInUse is the budget consumed by running jobs (always
	// <= Budget).
	Queued, Running, WorkersInUse, Budget int
	// Submitted counts jobs admitted by Submit (queued or started). Every
	// admitted job ends in exactly one terminal counter, so Submitted =
	// Queued + Running + Completed + Cancelled + TimedOut + Closed + Failed
	// at any snapshot.
	Submitted uint64
	// Completed counts jobs that finished with a nil error.
	Completed uint64
	// Cancelled counts jobs that ended with their context cancelled or its
	// deadline exceeded, whether queued or mid-run.
	Cancelled uint64
	// Rejected counts Submit calls refused with ErrQueueFull.
	Rejected uint64
	// TimedOut counts queued jobs rejected with ErrQueueTimeout.
	TimedOut uint64
	// Closed counts queued jobs completed with ErrClosed by Close.
	Closed uint64
	// Failed counts jobs that finished with any other error.
	Failed uint64
}

// Engine schedules jobs. Create with New; all methods are safe for
// concurrent use.
type Engine struct {
	budget       int
	maxQueue     int
	queueTimeout time.Duration

	mu      sync.Mutex
	queue   jobQueue
	avail   int // budget not held by running jobs
	running int
	seq     uint64
	closed  bool
	wg      sync.WaitGroup // running job goroutines

	submitted, completed, cancelled, rejected, timedOut, closedJobs, failed uint64
}

// New returns an Engine with the given options (see Options for defaults).
func New(opts Options) *Engine {
	budget := opts.Budget
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	maxQueue := opts.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultMaxQueue
	}
	return &Engine{
		budget:       budget,
		maxQueue:     maxQueue,
		queueTimeout: opts.QueueTimeout,
		avail:        budget,
	}
}

// Budget returns the Engine's total worker budget.
func (e *Engine) Budget() int { return e.budget }

// Submit validates req, and either starts it immediately (queue empty and
// its worker cap fits the unused budget), enqueues it, or rejects it
// (ErrQueueFull, ErrClosed, a validation error, or ctx already done). The
// returned Job completes asynchronously; wait on Done or a blocking
// accessor. ctx covers the job's whole life: cancelling it dequeues a
// waiting job or unwinds a running one cooperatively.
func (e *Engine) Submit(ctx context.Context, req Request) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	targets := 0
	if req.Clusterer != nil {
		targets++
	}
	if req.Streaming != nil {
		targets++
	}
	if req.Hierarchy != nil {
		targets++
	}
	if targets != 1 {
		return nil, ErrBadRequest
	}
	cfgCheck := req.Config
	if req.Hierarchy != nil {
		if err := req.Hierarchy.ValidateEps(cfgCheck.Eps); err != nil {
			return nil, err
		}
		switch cfgCheck.MinPts {
		case 0:
			cfgCheck.MinPts = req.Hierarchy.MinPts()
		case req.Hierarchy.MinPts():
		default:
			return nil, fmt.Errorf("engine: Config.MinPts %d must be 0 or the hierarchy's MinPts %d",
				cfgCheck.MinPts, req.Hierarchy.MinPts())
		}
	}
	if err := cfgCheck.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := req.Config.Workers
	if workers <= 0 || workers > e.budget {
		workers = e.budget
	}
	j := &Job{
		req:       req,
		ctx:       ctx,
		workers:   workers,
		priority:  req.Priority,
		submitted: time.Now(),
		idx:       -1,
		done:      make(chan struct{}),
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if e.queue.Len() == 0 && e.avail >= workers {
		j.seq = e.seq
		e.seq++
		e.submitted++
		e.startLocked(j)
		e.mu.Unlock()
		return j, nil
	}
	if e.queue.Len() >= e.maxQueue {
		// Rejected submissions consume no scheduler state — in particular no
		// seq, so admitted jobs keep a dense FIFO order even under a storm of
		// ErrQueueFull rejections.
		e.rejected++
		e.mu.Unlock()
		return nil, ErrQueueFull
	}
	j.seq = e.seq
	e.seq++
	e.submitted++
	// Watchers are registered before the job becomes visible to the
	// scheduler, and under the lock, so a dispatch (startLocked stops them)
	// never races their assignment. Their callbacks run on fresh goroutines
	// and re-take the lock, so there is no lock-order issue.
	if e.queueTimeout > 0 {
		j.timer = time.AfterFunc(e.queueTimeout, func() {
			e.finishQueued(j, ErrQueueTimeout, &e.timedOut)
		})
	}
	j.stopCtxWatch = context.AfterFunc(ctx, func() {
		e.finishQueued(j, ctx.Err(), &e.cancelled)
	})
	heap.Push(&e.queue, j)
	// The new job may outrank the current head (Priority beats FIFO), in
	// which case it is dispatchable right away.
	e.dispatch()
	e.mu.Unlock()
	return j, nil
}

// startLocked moves a job (already off the queue) into the running state.
// Caller holds e.mu.
func (e *Engine) startLocked(j *Job) {
	e.avail -= j.workers
	e.running++
	j.started = time.Now()
	j.queuedFor = j.started.Sub(j.submitted)
	if j.timer != nil {
		j.timer.Stop()
	}
	if j.stopCtxWatch != nil {
		j.stopCtxWatch()
	}
	e.wg.Add(1)
	go e.runJob(j)
}

// dispatch starts queued jobs, best first, while the head's worker cap fits
// the unused budget. The head is never overtaken (no backfill): a large job
// waits at most for running jobs to drain, not forever behind a stream of
// small ones. Caller holds e.mu.
func (e *Engine) dispatch() {
	for e.queue.Len() > 0 {
		j := e.queue.jobs[0]
		if j.workers > e.avail {
			return
		}
		heap.Pop(&e.queue)
		e.startLocked(j)
	}
}

// runJob executes one job on its own goroutine and returns its workers to
// the budget when done.
func (e *Engine) runJob(j *Job) {
	defer e.wg.Done()
	cfg := j.req.Config
	cfg.Workers = j.workers
	switch {
	case j.req.Clusterer != nil:
		j.res, j.err = j.req.Clusterer.RunContext(j.ctx, cfg)
	case j.req.Hierarchy != nil:
		j.res, j.err = j.req.Hierarchy.CutEpsContext(j.ctx, cfg.Eps, cfg.Workers)
	default:
		j.sres, j.err = j.req.Streaming.RunContext(j.ctx, cfg)
	}
	j.ranFor = time.Since(j.started)
	e.mu.Lock()
	e.avail += j.workers
	e.running--
	switch {
	case j.err == nil:
		e.completed++
	case errors.Is(j.err, context.Canceled), errors.Is(j.err, context.DeadlineExceeded):
		e.cancelled++
	default:
		e.failed++
	}
	e.dispatch()
	e.mu.Unlock()
	close(j.done)
}

// finishQueued completes a job that is still waiting in the queue (queue
// timeout, context cancellation, Close). A job that already started — or
// that another finisher beat this one to — is left alone: once running, only
// runJob completes it.
func (e *Engine) finishQueued(j *Job, err error, counter *uint64) {
	e.mu.Lock()
	if j.idx < 0 {
		e.mu.Unlock()
		return
	}
	heap.Remove(&e.queue, j.idx)
	// The job waited and is leaving the queue without running; record the
	// true wait so JobStats.Queued (and any latency histogram built on it)
	// reports timed-out and cancelled jobs honestly instead of as 0.
	j.queuedFor = time.Since(j.submitted)
	if counter != nil {
		*counter++
	}
	if j.timer != nil {
		j.timer.Stop()
	}
	if j.stopCtxWatch != nil {
		j.stopCtxWatch()
	}
	// Removing j may have exposed a head that fits the free budget (j could
	// have been a large job blocking smaller ones behind it).
	e.dispatch()
	e.mu.Unlock()
	j.err = err
	close(j.done)
}

// Close stops admission (Submit returns ErrClosed), completes every queued
// job with ErrClosed (counted in Stats.Closed), and waits for running jobs
// to finish. Running jobs are not cancelled — cancel their submit contexts
// to unwind them early.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		// A concurrent Close already swept the queue; still wait for the
		// running jobs before returning.
		e.wg.Wait()
		return
	}
	e.closed = true
	var dropped []*Job
	for e.queue.Len() > 0 {
		j := heap.Pop(&e.queue).(*Job)
		j.queuedFor = time.Since(j.submitted)
		if j.timer != nil {
			j.timer.Stop()
		}
		if j.stopCtxWatch != nil {
			j.stopCtxWatch()
		}
		e.closedJobs++
		dropped = append(dropped, j)
	}
	e.mu.Unlock()
	for _, j := range dropped {
		j.err = ErrClosed
		close(j.done)
	}
	e.wg.Wait()
}

// Stats returns a consistent snapshot of the live state and counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Queued:       e.queue.Len(),
		Running:      e.running,
		WorkersInUse: e.budget - e.avail,
		Budget:       e.budget,
		Submitted:    e.submitted,
		Completed:    e.completed,
		Cancelled:    e.cancelled,
		Rejected:     e.rejected,
		TimedOut:     e.timedOut,
		Closed:       e.closedJobs,
		Failed:       e.failed,
	}
}

// Job is one submitted run. Its accessors block until the job completes;
// Done exposes the completion signal for select loops.
type Job struct {
	req       Request
	ctx       context.Context
	workers   int
	priority  int
	seq       uint64
	submitted time.Time

	// idx is the heap index while queued, -1 otherwise. Guarded by e.mu.
	idx int

	// timer / stopCtxWatch guard the queued state; stopped on dispatch and
	// on finishQueued. Written once at Submit under e.mu.
	timer        *time.Timer
	stopCtxWatch func() bool

	// started/queuedFor are written under e.mu by exactly one of startLocked,
	// finishQueued, or Close (the queue-exit paths are mutually exclusive via
	// idx/closed); ranFor, res, sres, and err are written by the completing
	// goroutine before done is closed (the close is the happens-before edge
	// readers synchronize on).
	started   time.Time
	queuedFor time.Duration
	ranFor    time.Duration
	res       *pdbscan.Result
	sres      *pdbscan.StreamResult
	err       error

	done chan struct{}
}

// Done returns a channel closed when the job completes (successfully or
// not).
func (j *Job) Done() <-chan struct{} { return j.done }

// Err blocks until the job completes and returns its error: nil on success,
// the submit context's error if it was cancelled, ErrQueueTimeout /
// ErrClosed if it never ran.
func (j *Job) Err() error {
	<-j.done
	return j.err
}

// Result blocks until the job completes and returns the batch or
// hierarchy-cut result (nil for streaming jobs — use StreamResult).
func (j *Job) Result() (*pdbscan.Result, error) {
	<-j.done
	return j.res, j.err
}

// StreamResult blocks until the job completes and returns the streaming
// result (nil for batch jobs — use Result).
func (j *Job) StreamResult() (*pdbscan.StreamResult, error) {
	<-j.done
	return j.sres, j.err
}

// JobStats describes one completed (or in-flight) job's scheduling.
type JobStats struct {
	// Workers is the cap the job was (or will be) granted from the budget.
	Workers int
	// Queued is how long the job waited in the queue before leaving it — by
	// dispatch, queue timeout, context cancellation, or a Close sweep —
	// near zero if it started immediately. (A Submit rejected outright with
	// ErrQueueFull returns no Job, so there is nothing to record.)
	Queued time.Duration
	// Run is the execution time (0 if the job never ran).
	Run time.Duration
}

// Stats blocks until the job completes and returns its scheduling stats.
func (j *Job) Stats() JobStats {
	<-j.done
	return JobStats{Workers: j.workers, Queued: j.queuedFor, Run: j.ranFor}
}

// jobQueue is the priority queue of waiting jobs: higher Priority first,
// ties in submission (seq) order.
type jobQueue struct {
	jobs []*Job
}

func (q *jobQueue) Len() int { return len(q.jobs) }
func (q *jobQueue) Less(a, b int) bool {
	ja, jb := q.jobs[a], q.jobs[b]
	if ja.priority != jb.priority {
		return ja.priority > jb.priority
	}
	return ja.seq < jb.seq
}
func (q *jobQueue) Swap(a, b int) {
	q.jobs[a], q.jobs[b] = q.jobs[b], q.jobs[a]
	q.jobs[a].idx = a
	q.jobs[b].idx = b
}
func (q *jobQueue) Push(x any) {
	j := x.(*Job)
	j.idx = len(q.jobs)
	q.jobs = append(q.jobs, j)
}
func (q *jobQueue) Pop() any {
	n := len(q.jobs)
	j := q.jobs[n-1]
	q.jobs[n-1] = nil
	q.jobs = q.jobs[:n-1]
	j.idx = -1
	return j
}
