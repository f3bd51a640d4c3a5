package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/lynx"
	"repro/lynx/grid"
	"repro/lynx/load"
)

// runInProcess submits req straight to s and waits for the job to reach
// a terminal state, without the HTTP layer.
func runInProcess(tb testing.TB, s *Service, req JobRequest) *job {
	tb.Helper()
	st, err := s.Submit(req, "tester")
	if err != nil {
		tb.Fatal(err)
	}
	j := s.job(st.ID)
	for {
		j.mu.Lock()
		terminal, changed := j.terminal(), j.changed
		j.mu.Unlock()
		if terminal {
			return j
		}
		<-changed
	}
}

// A job served wholly from the cell cache is a lookup: it serves the
// stored rows and pools no metrics, so its allocations stay far below a
// cold job's. Re-marshalling each cached aggregate into its row and
// pooling every cell registry at finish cost about 1,900 allocations.
func TestCachedJobAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 400
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	if j := runInProcess(t, s, loadReq()); j.state != StateDone || j.cacheMisses != 2 {
		t.Fatalf("cold job: state %s, %d misses, want done with 2", j.state, j.cacheMisses)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if j := runInProcess(t, s, loadReq()); j.cacheHits != 2 {
			t.Fatalf("repeat job: %d hits, want 2", j.cacheHits)
		}
	})
	t.Logf("%.0f allocs per cached 2-cell load job (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("cached 2-cell load job: %.0f allocs, budget %d", allocs, budget)
	}
}

// reorderReq is a grid job whose axes come in the given order. One axis
// has a single value, so the cell enumeration indexes — and with them
// the replica seeds — are the same in both orders: every cell of the
// reordered job hits the cache, but its cell keys differ.
func reorderReq(substrateFirst bool) (JobRequest, grid.Spec) {
	payload := GridAxis{Name: "payload", Values: []any{64}}
	subs := GridAxis{Name: "substrate", Values: []any{"charlotte", "soda"}}
	axes := []GridAxis{payload, subs}
	if substrateFirst {
		axes = []GridAxis{subs, payload}
	}
	spec := grid.Spec{Replicas: 2, RootSeed: 7, Body: load.GridBodies()["echo"].Body}
	for _, a := range axes {
		vals := append([]any(nil), a.Values...)
		spec.Axes = append(spec.Axes, grid.Axis{Name: a.Name, Values: vals})
	}
	return JobRequest{Kind: "grid", Client: "tester", Grid: &GridJob{
		Body: "echo", Axes: axes, Replicas: 2, Seed: 7,
	}}, spec
}

// A hit serves the stored row only under the cell key it was rendered
// for: a job with its axes reordered hits every cached cell, yet streams
// rows carrying its own "cell" field, byte-equal to an uncached
// in-process run in that axis order.
func TestReorderedAxesHitWithOwnCellKey(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})
	first, firstSpec := reorderReq(false)
	_, st := submit(t, ts, first)
	_, firstRows := collectStream(t, ts, st.ID)
	if got, want := strings.Join(firstRows, "\n"), strings.TrimRight(grid.Run(firstSpec).RenderJSONL(), "\n"); got != want {
		t.Fatalf("cold grid rows != in-process rows:\n%s\nvs\n%s", got, want)
	}

	reordered, spec := reorderReq(true)
	_, st2 := submit(t, ts, reordered)
	_, rows := collectStream(t, ts, st2.ID)
	final := waitState(t, ts, st2.ID, StateDone)
	if final.CacheHits != 2 || final.CacheMisses != 0 {
		t.Fatalf("reordered job cache = %d hits / %d misses, want 2/0", final.CacheHits, final.CacheMisses)
	}
	want := strings.TrimRight(grid.Run(spec).RenderJSONL(), "\n")
	if got := strings.Join(rows, "\n"); got != want {
		t.Fatalf("reordered rows != uncached in-process rows:\n%s\nvs\n%s", got, want)
	}
	if !strings.Contains(rows[0], `"cell":"substrate=charlotte/payload=64"`) {
		t.Fatalf("reordered row carries the wrong cell key: %s", rows[0])
	}
}

// jobMetrics fetches GET /jobs/{id}/metrics and returns its body.
func jobMetrics(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job metrics status = %d: %s", resp.StatusCode, body)
	}
	return body
}

// The metrics rollup is built on request from the job's table, and it is
// the same document for a cold job, a repeat and an extend as for the
// in-process run of the same sweep.
func TestJobMetricsMatchInProcessRollup(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})
	extend := loadReq()
	extend.Load.Rates = []float64{30, 60, 90}
	for _, tc := range []struct {
		name  string
		req   JobRequest
		rates []float64
	}{
		{"cold", loadReq(), []float64{30, 60}},
		{"repeat", loadReq(), []float64{30, 60}},
		{"extend", extend, []float64{30, 60, 90}},
	} {
		_, st := submit(t, ts, tc.req)
		waitState(t, ts, st.ID, StateDone)
		spec, err := load.SweepSpec(load.SweepOptions{
			Substrates: []lynx.Substrate{lynx.Charlotte},
			Rates:      tc.rates,
			Window:     100 * lynx.Millisecond,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(grid.Run(spec).Merged().Snapshot()); err != nil {
			t.Fatal(err)
		}
		if got := jobMetrics(t, ts, st.ID); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s job metrics != in-process rollup:\n%s\nvs\n%s", tc.name, got, want.Bytes())
		}
	}
}

// Two jobs that compute the same cells at the same time each render
// their own rows; whichever entry the cache keeps, both streams carry
// the same bytes.
func TestConcurrentJobsStreamIdenticalRows(t *testing.T) {
	_, ts := startService(t, Config{Workers: 2})
	want := loadWant(t)
	ids := make([]string, 2)
	for i := range ids {
		_, st := submit(t, ts, loadReq())
		ids[i] = st.ID
	}
	rows := make([]string, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			rows[i] = resultSection(string(body))
		}()
	}
	wg.Wait()
	for i, got := range rows {
		if got != want {
			t.Fatalf("job %s rows != in-process rows:\n%s\nvs\n%s", ids[i], got, want)
		}
	}
}

// resultSection extracts the verbatim result lines from a stream body.
func resultSection(body string) string {
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	for i, ln := range lines {
		var env envelope
		if json.Unmarshal([]byte(ln), &env) == nil && env.Type == "result" {
			return strings.Join(lines[i+1:i+1+env.Lines], "\n")
		}
	}
	return ""
}
