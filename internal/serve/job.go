// Jobs: the unit the queue, the coalescing map and the result cache all
// share. A job is created by the first request for a content key,
// executed once, and observed by any number of waiters — later
// identical requests attach to it instead of spawning work.

package serve

import (
	"sync"
	"time"

	"sccsim"
	"sccsim/internal/obs"
)

// jobKind says what a job computes; it is the first field of the
// experiment, so the three kinds never share a content key.
type jobKind string

const (
	// jobSweep runs the full 32-point design-space sweep.
	jobSweep jobKind = "sweep"
	// jobPoint runs a single design point.
	jobPoint jobKind = "point"
	// jobSearch runs an adaptive design-space search.
	jobSearch jobKind = "search"
)

// jobState is a job's lifecycle position.
type jobState int

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	default:
		return "failed"
	}
}

// job is one deduplicated unit of work. The identity fields are set at
// creation and never change; the outcome is guarded by mu. done closes
// exactly once, after the terminal state is published, so waiters can
// select on it.
type job struct {
	id  string
	key string // content digest of exp (experiment.key)
	// exp is what the job computes: the resolved request its key digests.
	exp         experiment
	parallelism int           // engine worker pool; 0 means GOMAXPROCS
	timeout     time.Duration // per-request cap; 0 means the server default
	created     time.Time
	// requestID is the X-Request-ID of the request that created the job;
	// coalesced requests keep their own IDs in their own log lines but
	// share this job record. Set once, before the job goroutine starts.
	requestID string
	// trace is the creating request's span trace: the job's queue-wait
	// and simulate spans land there so /debug/requests shows them.
	trace *obs.Trace
	// twinKey, when non-empty, is the content key of the same sweep on
	// the other backend — the pairing the live cross-validation gauges
	// hang off (see experiment.twinKey).
	twinKey string

	done chan struct{}

	mu   sync.Mutex
	subs map[chan sccsim.Progress]struct{}
	out  outcome
}

// outcome is a job's mutable state, copied whole by snapshot for
// rendering.
type outcome struct {
	state     jobState
	last      *sccsim.Progress
	grid      *sccsim.Grid
	point     *sccsim.Point
	search    *sccsim.SearchResult
	report    *sccsim.SweepReport
	err       error
	coalesced int // requests that attached beyond the first
}

func newJob(id, key string, e experiment, parallelism int, timeout time.Duration) *job {
	return &job{
		id: id, key: key, exp: e, parallelism: parallelism,
		timeout: timeout, created: time.Now(),
		done: make(chan struct{}),
		subs: make(map[chan sccsim.Progress]struct{}),
	}
}

// set applies f to the job's outcome under its lock.
func (j *job) set(f func(*outcome)) {
	j.mu.Lock()
	f(&j.out)
	j.mu.Unlock()
}

// snapshot copies the outcome for response rendering.
func (j *job) snapshot() outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.out
}

// broadcast fans one engine progress event out to every subscriber.
// Channels are buffered and skipped when full — a slow streaming client
// loses events rather than stalling the sweep engine.
func (j *job) broadcast(p sccsim.Progress) {
	j.mu.Lock()
	j.out.last = &p
	for ch := range j.subs {
		select {
		case ch <- p:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe registers a progress channel and returns it with a
// detach function. Subscribing to a finished job returns a closed
// channel, so range loops terminate immediately.
func (j *job) subscribe() (<-chan sccsim.Progress, func()) {
	ch := make(chan sccsim.Progress, 64)
	j.mu.Lock()
	if j.out.state == jobDone || j.out.state == jobFailed {
		j.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// terminate publishes the terminal state and ends every progress
// stream. The Server closes the done channel afterwards, once the job
// is registered in the result cache, so a waiter woken by done — or a
// cache hit — always sees a terminal snapshot.
func (j *job) terminate(err error) {
	j.mu.Lock()
	j.out.err = err
	if err != nil {
		j.out.state = jobFailed
	} else {
		j.out.state = jobDone
	}
	for ch := range j.subs {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
}
