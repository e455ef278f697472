package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/fragmd/fragmd/internal/chem"
	"github.com/fragmd/fragmd/internal/fragment"
	"github.com/fragmd/fragmd/internal/md"
	"github.com/fragmd/fragmd/internal/molecule"
	"github.com/fragmd/fragmd/internal/potential"
	"github.com/fragmd/fragmd/internal/resilience"
	"github.com/fragmd/fragmd/internal/sched"
	"github.com/fragmd/fragmd/internal/serve"
)

const (
	serveWaters = 8              // water molecules per job
	serveChunk  = 20             // checkpoint cadence, MD steps
	serveSteps  = 2 * serveChunk // every job spans two checkpoint chunks
	serveTolHa  = 1e-10
	// serveSeeds is the number of distinct job seeds a run draws its
	// jobs from, so the serial references are computed once per seed.
	serveSeeds = 16
	// serveBlocks is the number of alternating untraced/traced blocks
	// a traced run splits its run length into.
	serveBlocks = 10
)

// serveRig is one in-process server on a localhost listener over a
// durable state directory.
type serveRig struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

// startServe opens a trajectory server over the existing state
// directory dir and serves its API on a fresh localhost listener.
func startServe(cfg *config, dir string) (*serveRig, error) {
	srv, err := serve.New(serve.Options{StateDir: dir, MaxActive: cfg.workers,
		CheckpointEvery: serveChunk, JobWorkers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &serveRig{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// stop shuts the HTTP server down, waits for its serve loop and closes
// the trajectory server.
func (r *serveRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.srv.Close()
	return err
}

// stateBytes is the size of everything under the state directory.
func (r *serveRig) stateBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(r.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// jobRun is one closed-loop job as the client saw it.
type jobRun struct {
	spec      serve.JobSpec
	submitS   float64 // POST round trip
	queueS    float64 // submit ack → first streamed step
	latencyS  float64 // submit → terminal result fetched
	stats     []serve.StepRecord
	httpError bool
	err       error
}

// doJob submits spec, follows its NDJSON stream to the terminal line,
// then fetches the result. With a tracer it records the job's spans
// under the job id.
func doJob(client *http.Client, base string, spec serve.JobSpec, tr *tracer) jobRun {
	run := jobRun{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		run.err = err
		return run
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		run.err = err
		return run
	}
	var view serve.JobView
	err = decodeResponse(resp, http.StatusCreated, &view)
	tAck := time.Now()
	run.submitS = tAck.Sub(t0).Seconds()
	if err != nil {
		run.httpError, run.err = true, err
		return run
	}

	resp, err = client.Get(base + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		run.err = err
		return run
	}
	var tFirst time.Time
	status, err := followStream(resp, &tFirst)
	tEnd := time.Now()
	if err != nil {
		run.httpError, run.err = resp.StatusCode != http.StatusOK, err
		return run
	}
	if !tFirst.IsZero() {
		run.queueS = tFirst.Sub(tAck).Seconds()
	}
	if status != serve.StatusDone {
		run.err = fmt.Errorf("job %s ended %s", view.ID, status)
		return run
	}

	resp, err = client.Get(base + "/v1/jobs/" + view.ID + "/result")
	if err != nil {
		run.err = err
		return run
	}
	var res serve.JobResult
	if err := decodeResponse(resp, http.StatusOK, &res); err != nil {
		run.httpError, run.err = true, err
		return run
	}
	tDone := time.Now()
	run.latencyS = tDone.Sub(t0).Seconds()
	run.stats = res.Stats
	if tr != nil {
		root := tr.newID()
		tr.add(root, 0, view.ID, "serve.job", t0, tDone)
		tr.add(tr.newID(), root, view.ID, "serve.submit", t0, tAck)
		tr.add(tr.newID(), root, view.ID, "serve.stream", tAck, tEnd)
		tr.add(tr.newID(), root, view.ID, "serve.result", tEnd, tDone)
	}
	return run
}

// decodeResponse decodes a JSON body, failing on any status but want.
func decodeResponse(resp *http.Response, want int, v interface{}) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// followStream reads NDJSON step lines until the terminal status line,
// noting when the first line arrived.
func followStream(resp *http.Response, first *time.Time) (serve.Status, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if first.IsZero() {
			*first = time.Now()
		}
		var line struct {
			Status serve.Status `json:"status"`
			Error  string       `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return "", fmt.Errorf("stream: %w", err)
		}
		if line.Status != "" {
			if line.Error != "" {
				return line.Status, errors.New(line.Error)
			}
			return line.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("stream ended without a terminal status")
}

// serialReference runs the job's spec uninterrupted on a single-worker
// in-process engine: the trajectory every served job must reproduce.
func serialReference(spec serve.JobSpec) ([]sched.StepStats, error) {
	g, err := molecule.ParseXYZ(strings.NewReader(spec.XYZ))
	if err != nil {
		return nil, err
	}
	f, err := fragment.ByMolecule(g, 3, 1, fragment.Options{})
	if err != nil {
		return nil, err
	}
	eng, err := sched.New(f, &potential.LennardJones{}, sched.Options{Workers: 1, Async: true,
		Dt: dtFs * chem.AtomicTimePerFs})
	if err != nil {
		return nil, err
	}
	state := md.NewState(g.Clone())
	state.SampleVelocities(tempK, rand.New(rand.NewSource(spec.Seed)))
	return eng.Run(state, spec.Steps, nil)
}

// closedLoop runs cfg.workers clients, one tenant each, until d has
// elapsed; each submits its next job only after the previous one ended.
func closedLoop(cfg *config, client *http.Client, base, xyz string, seeds []int64, rngs []*rand.Rand, d time.Duration, tr *tracer) ([]jobRun, float64) {
	var mu sync.Mutex
	var runs []jobRun
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < cfg.workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(t0) < d {
				spec := serve.JobSpec{Tenant: fmt.Sprintf("tenant-%d", c), XYZ: xyz, Potential: "lj",
					Steps: serveSteps, Seed: seeds[rngs[c].Intn(len(seeds))]}
				run := doJob(client, base, spec, tr)
				mu.Lock()
				runs = append(runs, run)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return runs, time.Since(t0).Seconds()
}

// runServeClosed drives an in-process trajectory server over real
// localhost HTTP with a closed loop of nproc clients.
func runServeClosed(cfg *config) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	// The state directory is made once; set-up opens the server over it
	// (as a restart would), so its time does not ride on the host
	// filesystem's directory-creation latency.
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "serve-state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rig, setupS, err := timeSetup(func() (*serveRig, error) { return startServe(cfg, dir) },
		func(r *serveRig) {
			if err := r.stop(); err != nil {
				fmt.Fprintln(os.Stderr, "fragbench: set-up teardown:", err)
			}
		})
	if err != nil {
		return nil, err
	}
	o.setupS = setupS
	defer func() {
		if err := rig.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "fragbench: teardown:", err)
		}
	}()

	var xyz strings.Builder
	if err := molecule.WaterCluster(serveWaters).WriteXYZ(&xyz); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	seeds := make([]int64, serveSeeds)
	for i := range seeds {
		seeds[i] = 1 + rng.Int63n(1<<31)
	}
	rngs := make([]*rand.Rand, cfg.workers) // one per client goroutine
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(rng.Int63()))
	}
	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers}}
	defer client.CloseIdleConnections()

	var runs []jobRun
	var wall float64
	var mem memUse // over the traced blocks
	if cfg.tr == nil {
		runs, wall = closedLoop(cfg, client, rig.base, xyz.String(), seeds, rngs, cfg.seconds, nil)
	} else {
		// Alternate untraced and traced blocks; per-layer metrics come
		// from the traced ones.
		block := cfg.seconds / serveBlocks
		var plain, traced []float64
		for b := 0; b < serveBlocks; b++ {
			var tr *tracer
			if b%2 == 1 {
				tr = cfg.tr
				mem.begin()
			}
			rs, w := closedLoop(cfg, client, rig.base, xyz.String(), seeds, rngs, block, tr)
			if tr == nil {
				plain = append(plain, w/float64(len(rs)))
				o.attempted += len(rs)
				o.failed += countFailed(rs)
				checkJobs(o, rs, cfg.workers)
				continue
			}
			mem.end()
			traced = append(traced, w/float64(len(rs)))
			runs = append(runs, rs...)
			wall += w
		}
		o.layers["trace.overhead_frac"] = median(traced)/median(plain) - 1
	}

	o.attempted += len(runs)
	o.failed += countFailed(runs)
	checkJobs(o, runs, cfg.workers)
	var lat, submit, queue []float64
	httpErrors := 0
	for _, r := range runs {
		if r.httpError {
			httpErrors++
		}
		if r.err == nil {
			lat = append(lat, r.latencyS)
			submit = append(submit, r.submitS)
			queue = append(queue, r.queueS)
		}
	}
	if len(lat) == 0 {
		return o, nil
	}
	if cfg.tr == nil {
		o.opsPerS = float64(len(lat)) / wall
		o.opP50ms = median(lat) * 1e3
		o.named = append(o.named, namedMetric{"jobs_per_s", o.opsPerS, "1/s"})
		o.addLatency("job", lat, "ms", 1e3)
		return o, nil
	}
	m := o.layers
	m["serve.submit_ms_p50"] = median(submit) * 1e3
	m["serve.queue_ms_p50"] = median(queue) * 1e3
	m["serve.http_errors"] = float64(httpErrors)
	n, err := rig.stateBytes()
	if err != nil {
		return nil, err
	}
	m["resilience.state_bytes_per_job"] = float64(n) / float64(o.attempted)
	ck, err := checkpointWrite(rig.dir, xyz.String())
	if err != nil {
		return nil, err
	}
	m["resilience.ck_write_ms_p50"] = ck * 1e3
	mem.store(m, len(lat))
	tunerLayers(m)
	return o, nil
}

func countFailed(runs []jobRun) int {
	n := 0
	for _, r := range runs {
		if r.err != nil {
			n++
		}
	}
	return n
}

// checkJobs compares every completed job with the serial reference of
// its seed (jobs differ only in tenant and seed), computing the
// references on workers goroutines.
func checkJobs(o *outcome, runs []jobRun, workers int) {
	var specs []serve.JobSpec
	refs := map[int64][]sched.StepStats{}
	for _, r := range runs {
		if _, ok := refs[r.spec.Seed]; !ok && r.err == nil {
			refs[r.spec.Seed] = nil
			specs = append(specs, r.spec)
		}
	}
	computed := make([][]sched.StepStats, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += workers {
				computed[i], _ = serialReference(specs[i]) // nil on error, a failed check below
			}
		}(w)
	}
	wg.Wait()
	for i, sp := range specs {
		refs[sp.Seed] = computed[i]
	}
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		want := refs[r.spec.Seed]
		if want == nil || len(r.stats) != len(want) {
			o.checkTrue("job_trajectory_complete", false)
			continue
		}
		o.checkTrue("job_trajectory_complete", true)
		for k, st := range want {
			o.checkClose("job_epot_vs_serial.ha", r.stats[k].Epot, st.Epot, serveTolHa)
			o.checkClose("job_etot_vs_serial.ha", r.stats[k].Etot, st.Etot, serveTolHa)
		}
	}
}

// checkpointWrite times resilience.Save of a job-sized checkpoint
// (state plus step bookkeeping of one served job) in the server's state
// directory and returns the median seconds.
func checkpointWrite(dir, xyz string) (float64, error) {
	g, err := molecule.ParseXYZ(strings.NewReader(xyz))
	if err != nil {
		return 0, err
	}
	state := md.NewState(g)
	state.SampleVelocities(tempK, rand.New(rand.NewSource(1)))
	ck := resilience.Snapshot(state, serveChunk, dtFs*chem.AtomicTimePerFs)
	ck.TotalSteps = serveSteps
	path := filepath.Join(dir, "ckbench.ck")
	ds := make([]float64, 0, 30)
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		if err := resilience.Save(path, ck); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), os.Remove(path)
}
