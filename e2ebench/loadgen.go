package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"llm4em/internal/entity"
)

// conns is the generator's connection budget: two workers, each
// holding one HTTP connection.
const conns = 2

// result is the outcome of one request.
type result struct {
	lat     time.Duration // from when it was due (open loop) or sent (closed loop)
	svc     time.Duration // from when it was sent
	err     error
	resolve *resolveResp
	entity  *entityResp
}

// phase is the outcome of one phase of requests.
type phase struct {
	name    string
	ops     []op
	results []result
	elapsed time.Duration
	// lateness is how late the generator itself issued each request
	// against its schedule; empty for closed-loop phases.
	lateness []time.Duration
	steal    float64 // host steal share during the phase; set for timed blocks
}

// counts returns (sent, succeeded, failed).
func (p *phase) counts() (sent, ok, failed int) {
	for _, r := range p.results {
		sent++
		if r.err != nil {
			failed++
		} else {
			ok++
		}
	}
	return
}

// do executes one op against the server and decodes its answer.
func do(c *http.Client, s *server, o op) result {
	var r result
	switch o.kind {
	case opResolve:
		body, _ := json.Marshal(toJSON(o.rec))
		r.resolve = &resolveResp{}
		r.err = call(c, "POST", s.base+"/v1/resolve", body, r.resolve)
	case opIngest:
		body, _ := json.Marshal(toJSON(o.rec))
		var ar addResp
		r.err = call(c, "POST", s.base+"/v1/records", body, &ar)
		if r.err == nil && ar.Added != 1 {
			r.err = errAdded
		}
	case opRead:
		r.entity = &entityResp{}
		r.err = call(c, "GET", s.entityURL(o.id), nil, r.entity)
	}
	return r
}

var errAdded = errors.New("POST /v1/records: added != 1")

// openLoop issues ops at a fixed rate. Each request is timed from the
// moment it was due, so a stall counts against every request queued
// behind it; the generator's own lateness is recorded separately.
func openLoop(c *http.Client, s *server, name string, ops []op, rate float64) *phase {
	p := &phase{name: name, ops: ops, results: make([]result, len(ops)), lateness: make([]time.Duration, len(ops))}
	due := make([]time.Time, len(ops))
	jobs := make(chan int, len(ops)) // never blocks the scheduler
	wait := startWorkers(jobs, func(i int) {
		t0 := time.Now()
		r := do(c, s, ops[i])
		r.svc = time.Since(t0)
		r.lat = time.Since(due[i])
		p.results[i] = r
	})
	start := time.Now()
	pace(len(ops), rate, func(i int, d time.Time) {
		due[i] = d
		p.lateness[i] = time.Since(d)
		jobs <- i
	})
	close(jobs)
	wait()
	p.elapsed = time.Since(start)
	return p
}

// closedLoop runs ops on every connection back to back, each worker
// sending its next request when the previous one returns.
func closedLoop(c *http.Client, s *server, name string, ops []op) *phase {
	p := &phase{name: name, ops: ops, results: make([]result, len(ops))}
	jobs := make(chan int, len(ops))
	for i := range ops {
		jobs <- i
	}
	close(jobs)
	start := time.Now()
	startWorkers(jobs, func(i int) {
		t0 := time.Now()
		r := do(c, s, ops[i])
		r.lat = time.Since(t0)
		r.svc = r.lat
		p.results[i] = r
	})()
	p.elapsed = time.Since(start)
	return p
}

// startWorkers runs f on conns goroutines for every index received on
// jobs. The returned wait blocks until jobs is closed and drained.
func startWorkers(jobs <-chan int, f func(i int)) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	return wg.Wait
}

// pace calls emit for i in [0, n) at a fixed rate, never before i's due
// time. The runtime's timers wake up to a millisecond late on Linux; a
// nanosleep on a locked thread keeps the schedule to ~0.1 ms.
func pace(n int, rate float64, emit func(i int, due time.Time)) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		emit(i, due)
	}
}

// resolveOps wraps queries as resolve ops.
func resolveOps(qs []entity.Record) []op {
	out := make([]op, len(qs))
	for i, q := range qs {
		out[i] = op{kind: opResolve, rec: q}
	}
	return out
}

// readOps wraps IDs as read ops.
func readOps(ids []string) []op {
	out := make([]op, len(ids))
	for i, id := range ids {
		out[i] = op{kind: opRead, id: id}
	}
	return out
}
