package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/grid"
	"repro/lynx/load"
	"repro/lynx/service"
)

// lynxd-mixed: an in-process lynxd (two workers) behind an HTTP server
// on loopback, fed an open-loop job stream over at most two client
// connections and two fair-queue lanes. A quarter of the jobs are cold
// (a fresh-seed load sweep), a sixth extend a recent cold spec by one
// rate (partial cache hits), and the rest repeat a recent cold spec
// exactly (all hits).

const (
	lynxdWorkers  = 2
	lynxdConns    = 2
	jobsPerSecond = 30
	// jobLimit is the latency limit a job must meet to count toward
	// goodput.
	jobLimit = 250 * time.Millisecond
	// recentCold is how many of the latest cold jobs a repeat or extend
	// may copy.
	recentCold = 8
)

// coldRates are each cold substrate's two offered rates (arrivals per
// virtual second), one under and one over saturation, plus the rate an
// extend job appends. Only Charlotte and SODA saturate at rates whose
// cells cost milliseconds; Ideal and Chrysalis are covered by the
// other workloads.
var coldRates = map[string][3]float64{
	"charlotte": {30, 90, 60},
	"soda":      {20, 70, 45},
}

var coldSubs = []string{"charlotte", "soda"}

// classBlock is the class mix, drawn as a shuffled block of twelve.
var classBlock = []string{"cold", "cold", "cold", "extend", "extend",
	"repeat", "repeat", "repeat", "repeat", "repeat", "repeat", "repeat"}

// jobPlan is one generated job: its class, its due time as an offset
// from the start of the stream, the cold job it copies (extend and
// repeat; -1 for cold), its client lane, and the request.
type jobPlan struct {
	class string
	due   time.Duration
	base  int
	lane  int
	req   service.JobRequest
}

// planJobs generates the job stream: n jobs spread over span with
// exponential gaps. A pure function of (seed, n, span). Cold jobs'
// (substrate, scenario) pairs are drawn as shuffled blocks of every
// pair too, so every stream has the same mix in a different order.
func planJobs(seed uint64, n int, span time.Duration) []jobPlan {
	rng := sim.NewRand(sim.StreamSeed(seed, 0x10b))
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = -math.Log(1 - float64(rng.Intn(1<<30))/float64(1<<30))
		total += gaps[i]
	}
	scenarios := fault.ScenarioNames()
	var classes, pairs []int
	draw := func(pool *[]int, n int) int {
		if len(*pool) == 0 {
			*pool = rng.Perm(n)
		}
		v := (*pool)[0]
		*pool = (*pool)[1:]
		return v
	}
	plans := make([]jobPlan, n)
	var cold []int
	var at float64
	for i := range plans {
		at += gaps[i]
		p := jobPlan{class: classBlock[draw(&classes, len(classBlock))], base: -1, lane: i % lynxdConns,
			due: time.Duration(float64(span) * at / total)}
		if len(cold) == 0 {
			p.class = "cold"
		}
		switch p.class {
		case "cold":
			pair := draw(&pairs, len(coldSubs)*len(scenarios))
			sub := coldSubs[pair%len(coldSubs)]
			r := coldRates[sub]
			lj := &service.LoadJob{
				Substrates: []string{sub},
				Rates:      []float64{r[0], r[1]},
				Window:     "200ms",
				Seed:       uint64(rng.Intn(1<<30)) + 1,
				Parallel:   1,
				Faults:     []string{scenarios[pair/len(coldSubs)]},
			}
			if len(cold)%10 == 9 {
				lj.Trace = "sampled"
			}
			p.req = service.JobRequest{Kind: "load", Load: lj}
			cold = append(cold, i)
		default:
			recent := cold[max(0, len(cold)-recentCold):]
			p.base = recent[rng.Intn(len(recent))]
			lj := *plans[p.base].req.Load
			if p.class == "extend" {
				lj.Rates = []float64{lj.Rates[0], lj.Rates[1], coldRates[lj.Substrates[0]][2]}
			}
			p.req = service.JobRequest{Kind: "load", Load: &lj}
		}
		p.req.Client = fmt.Sprintf("lane-%d", p.lane)
		plans[i] = p
	}
	return plans
}

// jobRecord is what the client saw of one job, in host time.
type jobRecord struct {
	due, sent, posted, progress, result, end time.Time
	id                                       string
	status                                   int // POST status code
	state                                    string
	misses                                   int64
	rows                                     []string
	err                                      error
}

func (r *jobRecord) ok() bool {
	return r.err == nil && r.status == http.StatusAccepted && r.state == "done"
}

func (r *jobRecord) latency() time.Duration { return r.end.Sub(r.due) }

// lynxd is one in-process daemon and its HTTP client.
type lynxd struct {
	svc    *service.Service
	srv    *httptest.Server
	tr     *http.Transport
	client *http.Client
}

// startLynxd starts a daemon and waits for its health check. It also
// returns the service's start-up time: service.New and its handler,
// until the workers run. The loopback listener and the health check's
// round trip are the benchmark's harness, not the service, and on an
// idle host their time is mostly the wake-up of a sleeping CPU.
func startLynxd() (*lynxd, time.Duration, error) {
	t0 := time.Now()
	d := &lynxd{svc: service.New(service.Config{Workers: lynxdWorkers})}
	h := d.svc.Handler()
	startup := time.Since(t0)
	d.srv = httptest.NewServer(h)
	d.tr = &http.Transport{MaxConnsPerHost: lynxdConns, MaxIdleConnsPerHost: lynxdConns}
	d.client = &http.Client{Transport: d.tr}
	resp, err := d.client.Get(d.srv.URL + "/healthz")
	if err != nil {
		d.close()
		return nil, 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, startup, nil
}

func (d *lynxd) close() {
	d.tr.CloseIdleConnections()
	d.srv.Close()
	d.svc.Close()
}

// getJSON decodes a GET response body into v.
func (d *lynxd) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.srv.URL + path)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return decodeBody(resp, v)
}

// decodeBody decodes a JSON response body and reads it to the end, so
// the client can reuse the connection.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	err := json.NewDecoder(resp.Body).Decode(v)
	if _, cerr := io.Copy(io.Discard, resp.Body); err == nil {
		err = cerr
	}
	return err
}

// do submits one job and follows its stream to the end.
func (d *lynxd) do(p jobPlan, rec *jobRecord) {
	body, err := json.Marshal(p.req)
	if err != nil {
		rec.err = err
		return
	}
	rec.sent = time.Now()
	resp, err := d.client.Post(d.srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	rec.posted = time.Now()
	if err != nil {
		rec.err = err
		return
	}
	rec.status = resp.StatusCode
	var st service.JobStatus
	err = decodeBody(resp, &st)
	if rec.status != http.StatusAccepted {
		rec.end = time.Now()
		return
	}
	if err != nil {
		rec.err = err
		return
	}
	rec.id = st.ID
	resp, err = d.client.Get(d.srv.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		rec.err = err
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"type":`) {
			rec.rows = append(rec.rows, line)
			continue
		}
		var env struct {
			Type        string `json:"type"`
			State       string `json:"state"`
			CacheMisses int64  `json:"cache_misses"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			rec.err = err
			return
		}
		switch env.Type {
		case "progress":
			if rec.progress.IsZero() {
				rec.progress = time.Now()
			}
		case "result":
			rec.result = time.Now()
		case "done":
			rec.state, rec.misses = env.State, env.CacheMisses
		}
	}
	rec.end = time.Now()
	if rec.err = sc.Err(); rec.err == nil && rec.state == "" {
		rec.err = fmt.Errorf("job %s: stream ended without a done envelope", st.ID)
	}
}

// lynxdPass is one run of the job stream against a daemon.
type lynxdPass struct {
	plans   []jobPlan
	recs    []jobRecord
	late    []float64 // generator lateness per job, ms
	start   time.Time
	elapsed time.Duration // stream start to the last job's end
	allocs  uint64
}

// runJobs plays the stream open-loop: each job is sent at its due time
// whether or not earlier jobs have finished.
func runJobs(c *runCtx, d *lynxd, plans []jobPlan) *lynxdPass {
	p := &lynxdPass{plans: plans, recs: make([]jobRecord, len(plans)), late: make([]float64, len(plans))}
	// At most this many jobs are in flight; past it the generator runs
	// late, which lateness records.
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	m0 := mallocs()
	p.start = time.Now()
	for i := range plans {
		due := p.start.Add(plans[i].due)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		p.late[i] = sinceMS(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			rec := &p.recs[i]
			rec.due = due
			d.do(plans[i], rec)
			if c.spans != nil {
				job := c.spans.add("client.job", 0, int64(i), rec.due, rec.end)
				addJobSpans(c.spans, job, int64(i), rec)
			}
		}(i)
	}
	wg.Wait()
	p.allocs = mallocs() - m0
	for i := range p.recs {
		if end := p.recs[i].end.Sub(p.start); end > p.elapsed {
			p.elapsed = end
		}
	}
	return p
}

// addJobSpans records a finished job's phases under its job span.
func addJobSpans(r *spanRec, parent, req int64, rec *jobRecord) {
	r.add("service.submit", parent, req, rec.sent, rec.posted)
	if rec.result.IsZero() {
		return
	}
	first := rec.progress
	if first.IsZero() {
		first = rec.result
	}
	r.add("service.queue", parent, req, rec.posted, first)
	r.add("service.run", parent, req, first, rec.result)
	r.add("service.stream", parent, req, rec.result, rec.end)
}

// checkJobs checks every job's outcome: done, and for extend and repeat
// jobs, every row shared with the copied cold job byte-equal to it.
func checkJobs(c *runCtx, p *lynxdPass) {
	for i := range p.recs {
		rec, plan := &p.recs[i], p.plans[i]
		if !c.tally.check(rec.ok(), "lynxd job %d (%s): status %d state %q err %v",
			i, plan.class, rec.status, rec.state, rec.err) {
			continue
		}
		if plan.base < 0 {
			continue
		}
		base := &p.recs[plan.base]
		if !base.ok() {
			continue
		}
		got := rowsByCell(rec.rows)
		for cell, row := range rowsByCell(base.rows) {
			c.tally.check(got[cell] == row, "lynxd job %d (%s of job %d): row %s differs", i, plan.class, plan.base, cell)
		}
		if plan.class == "repeat" {
			c.tally.check(len(rec.rows) == len(base.rows), "lynxd job %d: %d rows, cold job had %d",
				i, len(rec.rows), len(base.rows))
		}
	}
}

// rowsByCell indexes result rows by their "cell" key.
func rowsByCell(rows []string) map[string]string {
	out := make(map[string]string, len(rows))
	for _, row := range rows {
		var r struct {
			Cell string `json:"cell"`
		}
		if json.Unmarshal([]byte(row), &r) == nil {
			out[r.Cell] = row
		}
	}
	return out
}

// inProcessCheckJobs is how many of the first cold jobs are re-run in
// process and compared row for row with the daemon's result.
const inProcessCheckJobs = 3

// checkInProcess re-runs the first cold jobs through
// grid.Run(load.SweepSpec(...)) and compares the rendered rows with the
// daemon's stream.
func checkInProcess(c *runCtx, p *lynxdPass) error {
	checked := 0
	for i, plan := range p.plans {
		if plan.class != "cold" || !p.recs[i].ok() {
			continue
		}
		if checked == inProcessCheckJobs {
			break
		}
		checked++
		opts, err := sweepOptions(plan.req.Load)
		if err != nil {
			return err
		}
		spec, err := load.SweepSpec(opts)
		if err != nil {
			return err
		}
		want := splitRows(grid.Run(spec).RenderJSONL())
		c.tally.check(strings.Join(want, "\n") == strings.Join(p.recs[i].rows, "\n"),
			"lynxd job %d: daemon rows differ from the in-process grid.Run", i)
	}
	return nil
}

// sweepOptions lowers a load job onto the in-process sweep options, as
// lynxd does.
func sweepOptions(lj *service.LoadJob) (load.SweepOptions, error) {
	subs, err := lynx.ParseSubstrates(strings.Join(lj.Substrates, ","))
	if err != nil {
		return load.SweepOptions{}, err
	}
	window, err := time.ParseDuration(lj.Window)
	if err != nil {
		return load.SweepOptions{}, err
	}
	var plans []*fault.Plan
	for _, f := range lj.Faults {
		pl, err := fault.ParseScenario(f)
		if err != nil {
			return load.SweepOptions{}, err
		}
		plans = append(plans, pl)
	}
	return load.SweepOptions{Substrates: subs, Rates: lj.Rates, Window: lynx.Duration(window),
		Seed: lj.Seed, Parallel: 1, Faults: plans}, nil
}

func splitRows(s string) []string {
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// warmUpJob warms each round's daemon before the stream starts. Its
// seed lies outside the range planJobs draws from, so it never
// pre-fills a generated job's cells.
var warmUpJob = service.JobRequest{Kind: "load", Client: "warm-up", Load: &service.LoadJob{
	Substrates: []string{"charlotte"}, Rates: []float64{10}, Window: "50ms", Seed: 1 << 40, Parallel: 1}}

const setupReps = 50

// lynxdSetup starts and stops a daemon setupReps times and returns the
// start-up times, seconds. Each start follows a forced collection, so
// no start-up includes a collection of the previous one's garbage.
func lynxdSetup() ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d, startup, err := startLynxd()
		if err != nil {
			return nil, err
		}
		out = append(out, startup.Seconds())
		d.close()
	}
	return out, nil
}

// lynxdRound is the length of one daemon's life in the workload: the
// stream is cut into rounds, each against a freshly started daemon.
const lynxdRound = 2500 * time.Millisecond

func runLynxdMixed(c *runCtx, budget time.Duration) (*e2e, error) {
	setup, err := lynxdSetup()
	if err != nil {
		return nil, err
	}
	e := newE2E()
	rounds := max(1, int(budget/lynxdRound))
	span := budget / time.Duration(rounds)
	n := int(span.Seconds() * jobsPerSecond)
	for r := 0; r < rounds; r++ {
		d, _, err := startLynxd()
		if err != nil {
			return nil, err
		}
		var warm jobRecord
		d.do(jobPlan{req: warmUpJob}, &warm)
		c.tally.check(warm.ok(), "lynxd warm-up job: status %d state %q err %v", warm.status, warm.state, warm.err)
		p := runJobs(c, d, planJobs(sim.StreamSeed(c.seed, uint64(r)), n, span))
		e.allocs += p.allocs
		e.allocOps += int64(n)
		var good int64
		for i := range p.recs {
			rec := &p.recs[i]
			if !rec.ok() {
				continue
			}
			h := e.light.round
			if rec.misses > 0 {
				h = e.heavy.round
			}
			h.add(float64(rec.latency()))
			if rec.latency() <= jobLimit {
				good++
			}
		}
		e.round(good, p.elapsed)
		e.heapMB = append(e.heapMB, liveHeapMB())
		d.close()
		checkJobs(c, p)
		if r == 0 {
			if err := checkInProcess(c, p); err != nil {
				return nil, err
			}
		}
	}
	e.setupS = setup
	return e, nil
}
