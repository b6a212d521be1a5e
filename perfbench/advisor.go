package main

// The advisor workload: the pinning-advisor service (serve.NewServer,
// quick profile) on loopback, driven by the benchmark's own closed-loop
// client over two keep-alive connections — pinservd's callers wait for
// each answer. Each pass boots a server and prewarms a fixed key set, then
//
//   - cold: never-seen keys for one fixed registered scenario, each sent on
//     both connections at once (one simulation, one coalesced answer);
//   - warm: the prewarmed keys in a seeded, skewed order;
//   - replay: a second server over the first one's trial store (a restart
//     with an empty response cache) answers every cold key again from
//     stored trials, simulating nothing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

const (
	advisorColdKeys = 100  // never-seen keys per pass
	advisorWarmKeys = 8    // prewarmed keys
	advisorWarmReqs = 8000 // warm requests per pass
	// advisorScenario is the fixed registered scenario of every key, cut to
	// one cell so each cold key costs the same simulation.
	advisorScenario = "fig3"
)

type advisorRunner struct {
	b       *bench
	cold    [][]byte // request bodies of the cold keys
	warm    [][]byte // request bodies of the prewarmed keys
	order   []int    // warm request sequence (indices into warm)
	clients [2]*http.Client
	// firstCold holds the first pass's cold bodies: every pass must
	// answer each key with the same bytes.
	firstCold [][]byte
	nextID    atomic.Uint64 // request ids
}

// advisorRequest is the body of one key: the fixed scenario at one
// instance size with a generated seed, asking for a recommendation.
func advisorRequest(seed uint64) []byte {
	req := serve.RunRequest{
		Name:      advisorScenario,
		Cells:     []experiments.ScenarioCell{anatomyCell},
		Seed:      &seed,
		Recommend: &serve.RecommendSpec{},
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of plain fields always marshals
	}
	return data
}

func setupAdvisor(b *bench) (runner, error) {
	r := &advisorRunner{b: b}
	for i := 0; i < advisorColdKeys; i++ {
		r.cold = append(r.cold, advisorRequest(derive(b.seed, seedColdKey, uint64(i))))
	}
	for i := 0; i < advisorWarmKeys; i++ {
		r.warm = append(r.warm, advisorRequest(derive(b.seed, seedWarmKey, uint64(i))))
	}
	// Skewed popularity: a Zipf draw over the warm keys, so a few keys
	// carry most requests, as repeated CI gates asking the same question.
	rng := rand.New(rand.NewSource(int64(derive(b.seed, seedWarmOrder, 0) >> 1)))
	zipf := rand.NewZipf(rng, 1.2, 1, advisorWarmKeys-1)
	for i := 0; i < advisorWarmReqs; i++ {
		r.order = append(r.order, int(zipf.Uint64()))
	}
	for i := range r.clients {
		r.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
	}
	// Booting a server and prewarming its keys is part of the set-up the
	// first timed operation needs.
	srv, err := r.boot(experiments.NewTrialMemo(), -1)
	if err != nil {
		return nil, err
	}
	_, err = r.prewarm(srv, -1)
	return r, errors.Join(err, srv.close())
}

func (r *advisorRunner) close() error {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	return nil
}

// server is one booted advisor on a loopback listener.
type server struct {
	http *http.Server
	url  string
	done chan error
}

func (s *server) close() error {
	err := s.http.Close()
	if serr := <-s.done; serr != http.ErrServerClosed {
		err = errors.Join(err, serr)
	}
	return err
}

// boot starts an advisor over memo on a fresh loopback port.
func (r *advisorRunner) boot(memo experiments.TrialStore, parent int) (*server, error) {
	b := r.b
	h := b.tr.begin("serve.boot", 0, parent, 0)
	defer b.tr.end(h)
	cfg := experiments.Config{Quick: true, Executor: b.trials, Memo: memo}
	if b.tr != nil {
		cfg.Memo = tracedStore{TrialStore: memo, tr: b.tr, trial: b.trials}
	}
	adv := serve.NewServer(serve.Options{Config: cfg})
	var handler http.Handler = adv
	if b.tr != nil {
		handler = tracedHandler{next: adv, tr: b.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{http: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// tracedHandler records a "serve.handler" span per request, on the lane
// and under the client span the request names in its headers, with the
// response's provenance as the span's arg.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	parent, err := strconv.Atoi(req.Header.Get("X-Bench-Span"))
	if err != nil {
		parent = -1 // not a client request (the /statsz read)
	}
	lane, _ := strconv.Atoi(req.Header.Get("X-Bench-Lane"))
	id, _ := strconv.ParseUint(req.Header.Get("X-Bench-Id"), 10, 64)
	h := t.tr.begin("serve.handler", id, parent, lane)
	t.next.ServeHTTP(w, req)
	t.tr.setArg(h, w.Header().Get(serve.SourceHeader))
	t.tr.end(h)
}

// reply is one client-observed answer.
type reply struct {
	status int
	source string
	body   []byte
	lat    time.Duration
	err    error
}

// post sends one request on connection conn under a "client.request" span.
func (r *advisorRunner) post(s *server, conn int, body []byte, parent int) reply {
	b := r.b
	id := r.nextID.Add(1)
	h := b.tr.begin("client.request", id, parent, conn+1)
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, s.url+"/run", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if h >= 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(h))
		req.Header.Set("X-Bench-Lane", strconv.Itoa(conn+1))
		req.Header.Set("X-Bench-Id", strconv.FormatUint(id, 10))
	}
	var out reply
	resp, err := r.clients[conn].Do(req)
	if err == nil {
		out.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status, out.source = resp.StatusCode, resp.Header.Get(serve.SourceHeader)
	}
	out.lat, out.err = time.Since(t0), err
	b.tr.setArg(h, out.source)
	b.tr.end(h)
	return out
}

// pair sends body on both connections at once and returns both replies.
func (r *advisorRunner) pair(s *server, body []byte, parent int) [2]reply {
	var out [2]reply
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = r.post(s, c, body, parent)
		}(c)
	}
	wg.Wait()
	return out
}

// pairOK checks a pair of answers to one new key: both 200 with equal
// bodies, exactly one simulated (or, for the replay, computed from stored
// trials) and the other coalesced onto it — or served warm if it arrived
// after the leader finished.
func pairOK(p [2]reply) bool {
	if !bothOK(p) {
		return false
	}
	a, c := p[0].source, p[1].source
	if c == "simulated" {
		a, c = c, a
	}
	return a == "simulated" && (c == "coalesced" || c == "warm")
}

// bothOK reports whether both answers of a pair are 200s with equal bodies.
func bothOK(p [2]reply) bool {
	return p[0].err == nil && p[1].err == nil && p[0].status == 200 && p[1].status == 200 && bytes.Equal(p[0].body, p[1].body)
}

// prewarm computes every warm key once, sequentially on connection 0, and
// returns the bodies.
func (r *advisorRunner) prewarm(s *server, parent int) ([][]byte, error) {
	var bodies [][]byte
	for i, body := range r.warm {
		rep := r.post(s, 0, body, parent)
		if rep.err != nil || rep.status != 200 || rep.source != "simulated" {
			return nil, fmt.Errorf("prewarm key %d: status %d source %q err %v: %s", i, rep.status, rep.source, rep.err, rep.body)
		}
		bodies = append(bodies, rep.body)
	}
	return bodies, nil
}

func (r *advisorRunner) pass(root int) (passResult, error) {
	b := r.b
	var pr passResult
	memo := experiments.NewTrialMemo()
	srv, err := r.boot(memo, root)
	if err != nil {
		return pr, err
	}
	defer srv.close()
	warmBodies, err := r.prewarm(srv, root)
	if err != nil {
		return pr, err
	}

	// Cold: one new key at a time, on both connections at once.
	b.trials.take()
	coldBodies := make([][]byte, len(r.cold))
	misses0 := memo.Misses()
	h := b.tr.begin("advisor.cold", 0, root, 0)
	b.trials.under(-1, 0, false)
	allocs := b.mallocs()
	t0 := time.Now()
	for i, body := range r.cold {
		p := r.pair(srv, body, h)
		pr.attempted += 2
		pr.cold.ops = append(pr.cold.ops, ms(max(p[0].lat, p[1].lat)))
		pr.cold.lat = append(pr.cold.lat, ms(p[0].lat), ms(p[1].lat))
		if !pairOK(p) {
			pr.failed += 2
			b.fail("cold key %d: statuses %d/%d sources %q/%q", i, p[0].status, p[1].status, p[0].source, p[1].source)
			continue
		}
		coldBodies[i] = p[0].body
		if r.firstCold != nil && !bytes.Equal(p[0].body, r.firstCold[i]) {
			b.fail("cold key %d answered differently from the first pass", i)
		}
	}
	pr.cold.wall = time.Since(t0)
	b.tr.end(h)
	pr.add("go.cold_allocs", b.mallocs()-allocs)
	pr.cold.items = int(memo.Misses() - misses0)
	if r.firstCold == nil {
		r.firstCold = coldBodies
	}
	_, trials, errs := b.trials.take()
	pr.failed += errs
	pr.add("experiments.trials", float64(trials))

	// Warm: the prewarmed keys in the seeded skewed order, a closed loop
	// per connection.
	h = b.tr.begin("advisor.warm", 0, root, 0)
	t0 = time.Now()
	pr.warm.ops, pr.warm.lanes = make([]float64, len(r.order)), 2
	bad := make([]int, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(r.order); i += 2 {
				k := r.order[i]
				rep := r.post(srv, c, r.warm[k], h)
				pr.warm.ops[i] = ms(rep.lat)
				if rep.err != nil || rep.status != 200 || rep.source != "warm" || !bytes.Equal(rep.body, warmBodies[k]) {
					bad[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	pr.warm.wall = time.Since(t0)
	b.tr.end(h)
	pr.warm.items = len(r.order)
	pr.attempted += len(r.order)
	if n := bad[0] + bad[1]; n > 0 {
		pr.failed += n
		b.fail("%d warm answers had a wrong status, provenance or body", n)
	}

	var st serve.StatsJSON
	if err := r.getJSON(srv.url+"/statsz", &st); err != nil {
		return pr, err
	}
	if want := uint64(len(r.cold) + len(r.warm)); st.Simulated != want || st.Shed != 0 {
		b.fail("statsz: %d simulated (want %d), %d shed", st.Simulated, want, st.Shed)
	}
	pr.add("serve.warm", float64(st.Warm))
	pr.add("serve.coalesced", float64(st.Coalesced))
	pr.add("serve.simulated", float64(st.Simulated))
	pr.add("serve.shed", float64(st.Shed))
	pr.add("cache.responses", float64(st.Responses))
	pr.add("resultstore.misses", float64(st.Store.Misses))
	pr.add("resultstore.hits", float64(st.Store.Hits))

	// Replay: a restarted server over the same trial store re-answers
	// every cold key from stored trials.
	h = b.tr.begin("advisor.replay", 0, root, 0)
	t0 = time.Now()
	hits0, misses0 := memo.Hits(), memo.Misses()
	again, err := r.boot(memo, h)
	if err != nil {
		return pr, err
	}
	for i, body := range r.cold {
		p := r.pair(again, body, h)
		pr.attempted += 2
		pr.replay.ops = append(pr.replay.ops, ms(max(p[0].lat, p[1].lat)))
		// Provenance is not checked here: a second request that misses
		// the response cache just before the leader fills it and joins
		// the singleflight just after the leader leaves it computes the
		// figure again — from stored trials, so it simulates nothing.
		if !bothOK(p) || !bytes.Equal(p[0].body, coldBodies[i]) {
			pr.failed += 2
			b.fail("replayed key %d: statuses %d/%d sources %q/%q", i, p[0].status, p[1].status, p[0].source, p[1].source)
		}
	}
	pr.replay.wall = time.Since(t0)
	b.tr.end(h)
	pr.replay.items = int(memo.Hits() - hits0)
	if n := memo.Misses() - misses0; n != 0 {
		b.fail("replay simulated %d trials", n)
	}
	_, _, errs = b.trials.take()
	pr.failed += errs
	return pr, again.close()
}

// getJSON decodes a GET of url on connection 0.
func (r *advisorRunner) getJSON(url string, v any) error {
	resp, err := r.clients[0].Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
