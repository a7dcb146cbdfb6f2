package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/core"
	"sevsim/internal/dispatch"
	"sevsim/internal/journal"
)

// studyTimeout bounds the wait for a distributed study, so a study
// that cannot finish fails the run instead of hanging it.
const studyTimeout = 2 * time.Minute

// rtStats counts what the timing transport saw.
type rtStats struct {
	mu         sync.Mutex
	leasePolls int
	grants     int
}

// timingTransport times the worker API round trips of one worker from
// outside the worker, as spans named after the endpoint.
type timingTransport struct {
	tr    *tracer
	stats *rtStats
	next  http.RoundTripper
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var name string
	switch req.URL.Path {
	case "/v1/lease":
		name = "dispatch.lease"
	case "/v1/heartbeat":
		name = "dispatch.heartbeat"
	case "/v1/complete":
		name = "dispatch.complete"
	default:
		name = "dispatch.other"
	}
	start := t.tr.now()
	resp, err := t.next.RoundTrip(req)
	t.tr.record(span{Name: name, Start: start, End: t.tr.now(), Parent: -1})
	t.stats.mu.Lock()
	defer t.stats.mu.Unlock()
	if name == "dispatch.lease" {
		t.stats.leasePolls++
		if err == nil && resp.StatusCode == http.StatusOK {
			t.stats.grants++
		}
	}
	return resp, err
}

// distributed is one set-up dist study: a coordinator serving on
// loopback, nproc workers built on the shared cache prepareDist
// filled, and the study spec waiting to be submitted.
type distributed struct {
	e        *env
	s        core.Spec
	dir      string
	cacheDir string
	coord    *dispatch.Coordinator
	srv      *http.Server
	served   chan error
	url      string
	workers  []*dispatch.Worker
	rt       *rtStats

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// distSpec is the sweep's unit set under the dist seed; each worker
// runs its cells at Parallelism 1.
func distSpec(sc scale, seed int64) core.Spec {
	return sweepSpec(sc, distSeed(seed), 1)
}

// prepareDist creates the cache directory the workers share and fills
// it with every unit of the spec, through a zero-fault study: the prep
// cache key does not depend on targets, faults or seed. With a tracer
// it also fills the composed run's entries. It replaces the cache an
// earlier call prepared.
func prepareDist(e *env, tr *tracer) error {
	if e.cacheDir != "" {
		if err := os.RemoveAll(e.cacheDir); err != nil {
			return err
		}
	}
	dir, err := e.fresh("distcache")
	if err != nil {
		return err
	}
	e.cacheDir = dir
	cache, err := artcache.Open(dir, artcache.Options{})
	if err != nil {
		return err
	}
	pre := e.spec("dist")
	pre.Targets = targets("RF")
	pre.Faults = 0
	pre.Parallelism = e.nproc
	pre.Cache = cache
	if _, err := pre.Run(); err != nil {
		return fmt.Errorf("dist prefill: %w", err)
	}
	if tr != nil {
		if _, _, err := compose(pre, nil, ""); err != nil {
			return fmt.Errorf("dist prefill for the composed run: %w", err)
		}
	}
	return nil
}

// setupDist starts a coordinator on loopback and builds the workers on
// the prepared cache. A non-nil tracer gives every worker a timing
// transport.
func setupDist(e *env, tr *tracer) (instance, error) {
	dir, err := e.fresh("dist")
	if err != nil {
		return nil, err
	}
	d := &distributed{e: e, s: e.spec("dist"), dir: dir, cacheDir: e.cacheDir, rt: &rtStats{}}
	if err := checkInputs(d.s); err != nil {
		return nil, err
	}
	// Like sevd, create the coordinator's state directory first.
	state := filepath.Join(dir, "coordinator")
	if err := journal.MkdirAllSync(state, 0o755); err != nil {
		return nil, err
	}
	// The lease TTL is left at the coordinator's default, which is also
	// sevd's: a lease of TestSize cells ends long before its first
	// heartbeat is due, as in a real deployment.
	coord, err := dispatch.OpenCoordinator(dispatch.Options{Dir: state})
	if err != nil {
		return nil, err
	}
	d.coord = coord
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = dispatch.NewServer(coord, ln.Addr().String())
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()

	for i := 0; i < e.nproc; i++ {
		// dispatch.NewWorker does not create its workdir; without it
		// every lease's journal fails and every cell is quarantined.
		workdir := filepath.Join(dir, fmt.Sprintf("worker-%d", i))
		if err := journal.MkdirAllSync(workdir, 0o755); err != nil {
			d.close()
			return nil, err
		}
		opt := dispatch.WorkerOptions{
			Coordinator: d.url,
			Name:        fmt.Sprintf("w%d", i),
			Workdir:     workdir,
			Parallelism: 1,
			CacheDir:    d.cacheDir,
		}
		if tr != nil {
			opt.Client = &http.Client{Timeout: 30 * time.Second, Transport: &timingTransport{tr: tr, stats: d.rt, next: http.DefaultTransport}}
		}
		w, err := dispatch.NewWorker(opt)
		if err != nil {
			d.close()
			return nil, err
		}
		d.workers = append(d.workers, w)
	}
	return d, nil
}

// run submits the study over HTTP, starts the workers, waits for the
// coordinator to merge the last cell, and saves study.json.
func (d *distributed) run(tr *tracer) (*core.Study, time.Duration, error) {
	start := time.Now()
	var startNS int64
	if tr != nil {
		startNS = tr.now()
	}
	body, err := json.Marshal(dispatch.WireSpec(d.s))
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.Post(d.url+"/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	var sub dispatch.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("submit: %w", err)
	}
	events, unsubscribe, err := d.coord.Subscribe(sub.ID)
	if err != nil {
		return nil, 0, err
	}
	defer unsubscribe()
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	for _, w := range d.workers {
		d.wg.Add(1)
		go func(w *dispatch.Worker) {
			defer d.wg.Done()
			w.Run(ctx)
		}(w)
	}
	timeout := time.NewTimer(studyTimeout)
	defer timeout.Stop()
wait:
	for {
		select {
		case _, open := <-events:
			if !open {
				break wait
			}
		case <-timeout.C:
			return nil, 0, fmt.Errorf("study %s did not complete within %v", sub.ID, studyTimeout)
		}
	}
	data, ok := d.coord.Result(sub.ID)
	if !ok {
		return nil, 0, fmt.Errorf("study %s ended without a result", sub.ID)
	}
	out := filepath.Join(d.dir, "study.json")
	tr.do("core.save", -1, func(int) { err = journal.AtomicWriteFile(out, data) })
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	if tr != nil {
		tr.record(span{Name: "dispatch.study", Start: startNS, End: tr.now(), Parent: -1, Wait: true})
	}
	// Stop the idle workers now, so their polls after the study do not
	// reach the traced counts.
	d.stopWorkers()
	st := &core.Study{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, 0, fmt.Errorf("dist result: %w", err)
	}
	return st, took, nil
}

// stopWorkers cancels the workers and waits until they have returned.
func (d *distributed) stopWorkers() {
	if d.cancel != nil {
		d.cancel()
	}
	d.wg.Wait()
}

// reference runs the same spec in one process on the warm cache.
func (d *distributed) reference() (*core.Study, error) {
	cache, err := artcache.Open(d.cacheDir, artcache.Options{})
	if err != nil {
		return nil, err
	}
	s := d.s
	s.Parallelism = d.e.nproc
	s.Cache = cache
	return s.Run()
}

// composed runs the dist units through the composed pipeline on the
// warm cache, for the per-layer costs a worker pays per unit.
func (d *distributed) composed(tr *tracer) (*core.Study, *counters, error) {
	cache, err := artcache.Open(d.cacheDir, artcache.Options{})
	if err != nil {
		return nil, nil, err
	}
	s := d.s
	s.Parallelism = d.e.nproc
	s.Cache = cache
	s.Journal = filepath.Join(d.dir, "composed.journal")
	return compose(s, tr, "")
}

// cacheStats sums the workers' cache counters.
func (d *distributed) cacheStats() artcache.Stats {
	var s artcache.Stats
	for _, w := range d.workers {
		s.Add(w.Cache().Stats())
	}
	return s
}

// close stops the workers and waits for them, shuts the server down,
// closes the coordinator and removes the workload's files.
func (d *distributed) close() error {
	d.stopWorkers()
	var errs []error
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, d.srv.Shutdown(ctx))
		cancel()
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if d.coord != nil {
		errs = append(errs, d.coord.Close())
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}
