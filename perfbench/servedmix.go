package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"kaleido"
	"kaleido/internal/service"
)

const (
	// servedRate is the mean arrival rate, about 60% of the rate at which
	// kaleidod saturates on a 2-CPU machine.
	servedRate = 6.0
	// servedBudget is small enough that two 3-FSM(patent) projections
	// cannot be admitted together, so admission really queues.
	servedBudget = "8MiB"
	// servedConns caps the generator's connections to the daemon.
	servedConns = 2
	// servedDrain bounds the wait for the last jobs to finish.
	servedDrain = 60 * time.Second
	// traceWindow alternates /metrics sampling on and off in a traced run.
	traceWindow = 2 * time.Second
)

// servedClass is one job class of the mix.
type servedClass struct {
	name, graph string
	spec        service.JobSpec
}

var servedClasses = []servedClass{
	{"tc", "mico", service.JobSpec{App: "tc"}},
	{"clique4", "mico", service.JobSpec{App: "clique", K: 4}},
	{"clique5", "mico", service.JobSpec{App: "clique", K: 5}},
	{"motif3", "citeseer", service.JobSpec{App: "motif", K: 3}},
	{"fsm3c", "citeseer", service.JobSpec{App: "fsm", K: 3, Support: 100}},
	{"fsm3p", "patent", service.JobSpec{App: "fsm", K: 3, Support: 300}},
}

// arrival is one scheduled job.
type arrival struct {
	at     time.Time
	class  int
	traced bool // scheduled inside a /metrics sampling window
}

// schedule lays out n seeded arrivals at mean rate per second: gaps are
// uniform in [0.75, 1.25]× the mean, and every block of len(classes)
// arrivals holds each class once in a seeded order.
func schedule(seed int64, n int, rate float64, start time.Time) []arrival {
	rng := rand.New(rand.NewSource(seed))
	mean := float64(time.Second) / rate
	out := make([]arrival, n)
	at := start
	var block []int
	for i := range out {
		if len(block) == 0 {
			block = rng.Perm(len(servedClasses))
		}
		out[i] = arrival{at: at, class: block[0], traced: at.Sub(start)/traceWindow%2 == 1}
		block = block[1:]
		at = at.Add(time.Duration(mean * (0.75 + rng.Float64()/2)))
	}
	return out
}

// daemon is a running kaleidod.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited
	err  error         // its exit status, valid after done
}

// startDaemon starts kaleidod on a free loopback port and waits until
// /healthz answers ok.
func startDaemon(opt *options, client *http.Client, spill, logPath string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(opt.daemon, "-addr", addr, "-budget", servedBudget, "-spill", spill,
		"-cache-dir=", "-cache-graphs", "4", "-drain-timeout", "20s")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { d.err = cmd.Wait(); close(d.done) }()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		select {
		case <-d.done:
			return nil, fmt.Errorf("kaleidod exited during start: %v (log %s)", d.err, logPath)
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ok" {
			return d, nil
		}
	}
	d.kill()
	return nil, fmt.Errorf("kaleidod did not become healthy (log %s)", logPath)
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("kaleidod did not drain")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submission is the generator's record of one arrival.
type submission struct {
	id        string
	err       error
	late      time.Duration // send start after the scheduled time
	roundTrip time.Duration // POST /jobs until the 202 arrived
}

// runServedMix drives kaleidod over loopback HTTP with an open-loop seeded
// job mix and times each job from its scheduled send to its finish.
func runServedMix(ctx context.Context, opt *options, out *outcome) error {
	if opt.daemon == "" {
		return fmt.Errorf("served-mix needs -daemon")
	}
	spill := filepath.Join(opt.workdir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return err
	}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: servedConns, MaxIdleConnsPerHost: servedConns},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()

	// Set-up: write the seeded graph files and start a daemon; repeated,
	// the last daemon serves the run.
	paths := map[string]string{}
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	err := timeSetup(opt, out, func() (err error) {
		for _, name := range []string{"mico", "citeseer", "patent"} {
			in, err := generate(name, opt.seed, opt.toy)
			if err != nil {
				return err
			}
			paths[name] = filepath.Join(opt.workdir, name+".txt")
			if err := in.writeEdgeList(paths[name]); err != nil {
				return err
			}
		}
		d, err = startDaemon(opt, client, spill, filepath.Join(opt.workdir, "kaleidod.log"))
		return err
	}, func() error {
		err := d.stop()
		d = nil
		return err
	})
	if err != nil {
		return err
	}

	n := int(servedRate*opt.seconds + 0.5)
	if n < len(servedClasses) {
		n = len(servedClasses)
	}
	start := time.Now().Add(50 * time.Millisecond)
	arrivals := schedule(opt.seed, n, servedRate, start)
	subs := make([]submission, n)

	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	queuedMax := -1
	if opt.trace {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(200 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case now := <-tick.C:
					if now.Sub(start)/traceWindow%2 != 1 {
						continue
					}
					var m service.Metrics
					if getJSON(client, d.base+"/metrics", &m) == nil && m.Engine.QueuedRuns > queuedMax {
						queuedMax = m.Engine.QueuedRuns
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i, a := range arrivals {
		time.Sleep(time.Until(a.at))
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			spec := servedClasses[a.class].spec
			spec.GraphPath = paths[servedClasses[a.class].graph]
			body, _ := json.Marshal(spec)
			sent := time.Now()
			subs[i].late = sent.Sub(a.at)
			resp, err := client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				subs[i].err = err
				return
			}
			defer resp.Body.Close()
			subs[i].roundTrip = time.Since(sent)
			var job service.Job
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil || resp.StatusCode != http.StatusAccepted {
				subs[i].err = fmt.Errorf("submit: status %s: %v", resp.Status, err)
				return
			}
			subs[i].id = job.ID
		}(i, a)
	}
	wg.Wait()

	// Wait for every accepted job to reach a terminal state.
	var jobs []service.Job
	for deadline := time.Now().Add(servedDrain); ; time.Sleep(100 * time.Millisecond) {
		if err := getJSON(client, d.base+"/jobs", &jobs); err != nil {
			return err
		}
		live := 0
		for _, j := range jobs {
			if j.State == service.StateQueued || j.State == service.StateRunning {
				live++
			}
		}
		if live == 0 || time.Now().After(deadline) {
			break
		}
	}
	close(stopSampling)
	sampler.Wait()
	var metrics service.Metrics
	if err := getJSON(client, d.base+"/metrics", &metrics); err != nil {
		return err
	}
	rss, err := peakRSSMB(fmt.Sprint(d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	byID := make(map[string]*service.Job, len(jobs))
	for i := range jobs {
		byID[jobs[i].ID] = &jobs[i]
	}

	// Per-job accounting: every arrival is one attempted operation; refused,
	// failed, deadline, canceled and unfinished jobs count as failed.
	var lat, latOn, latOff, waits, submitMS []float64
	var lateMax time.Duration
	classLat := make([][]float64, len(servedClasses))
	runs := make([][]float64, len(servedClasses))
	results := make([][]*service.JobResult, len(servedClasses))
	var lastFinish time.Time
	for i, a := range arrivals {
		s := subs[i]
		if s.late > lateMax {
			lateMax = s.late
		}
		var j *service.Job
		if s.err == nil {
			j = byID[s.id]
		}
		switch {
		case s.err != nil:
			out.op("submit "+servedClasses[a.class].name, s.err)
			continue
		case j == nil || j.State != service.StateDone:
			state, msg := "missing", ""
			if j != nil {
				state, msg = string(j.State), j.Error
			}
			out.op("job "+s.id, fmt.Errorf("%s %s", state, msg))
			continue
		}
		out.attempted++
		ms := j.FinishedAt.Sub(a.at).Seconds() * 1000
		lat = append(lat, ms)
		classLat[a.class] = append(classLat[a.class], ms)
		if a.traced {
			latOn = append(latOn, ms)
		} else {
			latOff = append(latOff, ms)
		}
		waits = append(waits, j.StartedAt.Sub(j.SubmittedAt).Seconds()*1000)
		submitMS = append(submitMS, s.roundTrip.Seconds()*1000)
		runs[a.class] = append(runs[a.class], j.FinishedAt.Sub(j.StartedAt).Seconds()*1000)
		results[a.class] = append(results[a.class], j.Result)
		if j.FinishedAt.After(lastFinish) {
			lastFinish = j.FinishedAt
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no job finished")
	}

	// Every served result must equal a direct Engine run of the same spec.
	for c, cl := range servedClasses {
		spec := cl.spec
		spec.GraphPath = paths[cl.graph]
		g, err := kaleido.LoadEdgeListFile(spec.GraphPath)
		if err != nil {
			return err
		}
		var stats kaleido.Stats
		want, err := service.Execute(ctx, &kaleido.Engine{}, g, &spec, &stats)
		if !out.op("direct "+cl.name, err) {
			continue
		}
		if opt.tamper && c == 0 {
			want.Count++
		}
		for _, got := range results[c] {
			out.expect(resultKey(got) == resultKey(want), "served %s result %s != direct %s", cl.name, resultKey(got), resultKey(want))
		}
	}

	// work_s averages the classes' median latencies: the overall median
	// falls between the service times of two classes and jumps with them.
	var classP50 float64
	for _, xs := range classLat {
		classP50 += median(xs) / float64(len(classLat))
	}
	// tail_s is the p90: the p95 of a run's ≈200 jobs rests on about ten
	// samples, and its spread over ten seeds reached the bound.
	p50 := quantile(lat, 0.5)
	p90 := quantile(lat, 0.9)
	p95 := quantile(lat, 0.95)
	out.e2e["peak_rss_mb"] = rss
	out.e2e["work_s"] = classP50 / 1000
	out.e2e["tail_s"] = p90 / 1000
	jobsPerS := float64(len(lat)) / lastFinish.Sub(start).Seconds()
	note("jobs=%d served_p50_ms=%.3f p90 %.3f served_p95_ms=%.3f served_jobs_per_s=%.4f (p95 has %d samples beyond it) class p50 mean %.3f ms",
		len(lat), p50, p90, p95, jobsPerS, len(lat)-int(0.95*float64(len(lat))), classP50)

	l := out.layer
	l["served_p50_ms"], l["served_p95_ms"], l["served_jobs_per_s"] = p50, p95, jobsPerS
	l["served.jobs"] = float64(len(lat))
	l["served.late_ms_max"] = lateMax.Seconds() * 1000
	l["service.submit_ms_p50"] = median(submitMS)
	hits, misses := metrics.Cache.Hits, metrics.Cache.Misses
	if hits+misses > 0 {
		l["service.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
	l["service.cache_loads"] = float64(misses)
	l["admission.wait_ms_p50"] = quantile(waits, 0.5)
	l["admission.wait_ms_p95"] = quantile(waits, 0.95)
	l["admission.queued_max"] = float64(queuedMax)
	l["engine.peak_frac"] = float64(metrics.Engine.PeakBytes) / float64(metrics.Engine.MemoryBudget)
	for c, cl := range servedClasses {
		if len(runs[c]) > 0 {
			l["engine.run_ms_p50."+cl.name] = median(runs[c])
		}
	}
	if len(latOn) > 0 && len(latOff) > 0 {
		l["trace.work_s"] = quantile(latOn, 0.5) / 1000
		l["trace.work_overhead_s"] = (quantile(latOn, 0.5) - quantile(latOff, 0.5)) / 1000
		l["trace.tail_s"] = quantile(latOn, 0.9) / 1000
		l["trace.tail_overhead_s"] = (quantile(latOn, 0.9) - quantile(latOff, 0.9)) / 1000
	}
	return nil
}

// resultKey renders a job result for comparison: the scalar count, the
// pattern total and the sorted multiset of (count, support) pairs — the
// representative rendering of a pattern class may differ between runs.
func resultKey(r *service.JobResult) string {
	if r == nil {
		return "<nil>"
	}
	rows := make([]string, len(r.Patterns))
	for i, p := range r.Patterns {
		rows[i] = fmt.Sprintf("%d/%d", p.Count, p.Support)
	}
	sort.Strings(rows)
	return fmt.Sprintf("count=%d patterns=%d %v", r.Count, r.TotalPatterns, rows)
}
