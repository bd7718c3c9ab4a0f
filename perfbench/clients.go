package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"batterylab/internal/api"
	"batterylab/internal/remote"
)

// Request headers the benchmark's own client and handler wrapper share:
// which lane the request belongs to, and a per-client request id that
// pairs a client call with its handler time.
const (
	hdrLane = "X-Bench-Lane"
	hdrReq  = "X-Bench-Req"
)

// client is one generator connection: an HTTP client whose transport
// tags each request with its lane and id.
type client struct {
	lane string
	tr   *http.Transport
	hc   *http.Client
	next atomic.Int64
	last atomic.Int64
}

func newClient(lane string) *client {
	c := &client{lane: lane, tr: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	c.hc = &http.Client{Transport: tagTransport{c}}
	return c
}

type tagTransport struct{ c *client }

func (t tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.c.next.Add(1)
	t.c.last.Store(id)
	req = req.Clone(req.Context())
	req.Header.Set(hdrLane, t.c.lane)
	req.Header.Set(hdrReq, strconv.FormatInt(id, 10))
	return t.c.tr.RoundTrip(req)
}

// lastKey identifies the client's latest request to the handler wrapper.
func (c *client) lastKey() string { return c.lane + ":" + strconv.FormatInt(c.last.Load(), 10) }

func (c *client) platform(url, token string) *remote.Platform {
	p, err := remote.Dial(url, token)
	if err != nil {
		panic(err) // the URL comes from httptest
	}
	p.SetHTTPClient(c.hc)
	return p
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// handlerWrap is the benchmark-owned wrapper around Server.Handler(): it
// times the submit, status, cancel and analytics handlers and opens
// their spans on the calling client's lane.
type handlerWrap struct {
	r *round
	h http.Handler

	mu    sync.Mutex
	byReq map[string]time.Duration
}

func newHandlerWrap(r *round, h http.Handler) *handlerWrap {
	return &handlerWrap{r: r, h: h, byReq: map[string]time.Duration{}}
}

func routeKind(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && (p == "/api/v1/experiments" || p == "/api/v1/campaigns"):
		return "submit"
	case req.Method == http.MethodPost && strings.HasSuffix(p, "/cancel"):
		return "cancel"
	case req.Method != http.MethodGet || !strings.HasPrefix(p, "/api/v1/builds/"):
		return ""
	case strings.HasSuffix(p, "/analytics"):
		return "analytics"
	case !strings.Contains(strings.TrimPrefix(p, "/api/v1/builds/"), "/"):
		return "status"
	}
	return ""
}

func (hw *handlerWrap) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	kind := routeKind(req)
	if kind == "" {
		hw.h.ServeHTTP(w, req)
		return
	}
	var ln *lane
	switch req.Header.Get(hdrLane) {
	case "drv":
		ln = hw.r.drv
	case "rdr":
		ln = hw.r.rdr
	}
	ly := layerAccess
	if kind == "analytics" {
		ly = layerAnalytics
	}
	ln.begin(ly, "handler."+kind, 0)
	t0 := time.Now()
	hw.h.ServeHTTP(w, req)
	d := time.Since(t0)
	ln.end()
	hw.r.res.addHandler(kind, d)
	if id := req.Header.Get(hdrReq); id != "" && (kind == "submit" || kind == "analytics") {
		hw.mu.Lock()
		hw.byReq[req.Header.Get(hdrLane)+":"+id] = d
		hw.mu.Unlock()
	}
}

// take returns and forgets the handler time of one request.
func (hw *handlerWrap) take(key string) (time.Duration, bool) {
	hw.mu.Lock()
	defer hw.mu.Unlock()
	d, ok := hw.byReq[key]
	delete(hw.byReq, key)
	return d, ok
}

func (r *round) spec(key int) api.ExperimentSpec {
	bp := &r.p.builds[key]
	return api.ExperimentSpec{
		Node: bp.node, Device: "dev-" + bp.node,
		Workload: api.WorkloadSpec{Name: benchWorkload, Params: api.Params{"key": key}},
	}
}

// submit performs one arrival: POST /api/v1/experiments for a single
// build, POST /api/v1/campaigns for a burst.
func (r *round) submit(ev *event) {
	path := "/api/v1/experiments"
	var body any = r.spec(ev.keys[0])
	if len(ev.keys) > 1 {
		cs := api.CampaignSpec{MaxConcurrent: 32}
		for _, k := range ev.keys {
			cs.Experiments = append(cs.Experiments, r.spec(k))
		}
		path, body = "/api/v1/campaigns", cs
	}
	r.drv.begin(layerRemote, "client.submit", 0)
	t0 := time.Now()
	data, err := r.post(path, r.tokens[ev.tenant], body)
	d := time.Since(t0)
	var ids []int
	if err == nil {
		if len(ev.keys) == 1 {
			var resp api.SubmitResponse
			err = json.Unmarshal(data, &resp)
			ids = []int{resp.Build}
		} else {
			var resp api.CampaignResponse
			err = json.Unmarshal(data, &resp)
			ids = resp.Builds
		}
	}
	if err == nil && len(ids) != len(ev.keys) {
		err = fmt.Errorf("submit answered %d build ids for %d specs", len(ids), len(ev.keys))
	}
	if err == nil {
		r.drv.setBuild(ids[0])
	}
	r.drv.end()
	r.res.op(err)
	if err != nil {
		r.res.checkf("submit at %s: %v", ev.at, err)
		return
	}
	r.res.submitMS.add(ms(d))
	if hd, ok := r.hw.take(r.writer.lastKey()); ok {
		r.res.clientOverhead.add(float64(d-hd) / 1e3)
	}
	r.idMu.Lock()
	for i, k := range ev.keys {
		r.ids[k] = ids[i]
	}
	r.submitted = append(r.submitted, ids...)
	r.idMu.Unlock()
	n := r.w.statusPerBuild * len(ids)
	if r.polls != nil {
		r.polls.add(ids, n)
		return
	}
	for i := 0; i < n; i++ {
		r.poll(r.wplat, r.drv, r.submitted[r.pollRng.Intn(len(r.submitted))])
	}
}

// cancel aborts one build as its owner.
func (r *round) cancel(ev *event) {
	id := r.buildID(ev.cancel)
	r.drv.begin(layerRemote, "client.cancel", id)
	_, err := r.post(fmt.Sprintf("/api/v1/builds/%d/cancel", id), r.tokens[ev.tenant], nil)
	r.drv.end()
	r.res.op(err)
	if err != nil {
		r.res.checkf("cancel of build %d: %v", id, err)
	}
}

// post sends one v1 POST on the writer's connection and returns the
// 2xx body.
func (r *round) post(path, token string, body any) ([]byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, r.homeTS.URL+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.writer.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// stateRank orders wire states along the build lifecycle.
func stateRank(s string) int {
	switch s {
	case "queued":
		return 0
	case "running":
		return 1
	case "success", "failure", "aborted":
		return 2
	}
	return -1
}

// poll reads one build's status and checks that its state never moves
// backwards. One goroutine polls per round, so lastRank needs no lock.
func (r *round) poll(plat *remote.Platform, ln *lane, id int) {
	ln.begin(layerRemote, "client.status", id)
	t0 := time.Now()
	st, err := plat.BuildStatus(context.Background(), id)
	d := time.Since(t0)
	ln.end()
	r.res.op(err)
	if err != nil {
		r.res.checkf("status of build %d: %v", id, err)
		return
	}
	r.res.statusMS.add(ms(d))
	rank := stateRank(st.State)
	if rank < 0 {
		r.res.checkf("status of build %d: unexpected state %q", id, st.State)
		return
	}
	if rank < r.lastRank[id] {
		r.res.checkf("status of build %d went backwards to %s", id, st.State)
	}
	r.lastRank[id] = rank
}

// pollQueue hands the status reader a fixed number of reads per
// submitted build.
type pollQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ids    []int
	tokens int
	closed bool
}

func newPollQueue() *pollQueue {
	q := &pollQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *pollQueue) add(ids []int, n int) {
	q.mu.Lock()
	q.ids = append(q.ids, ids...)
	q.tokens += n
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *pollQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// next blocks for a read token and picks a submitted build with rng;
// ok is false once the queue is closed and drained.
func (q *pollQueue) next(pick func(n int) int) (id int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.tokens == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.tokens == 0 {
		return 0, false
	}
	q.tokens--
	return q.ids[pick(len(q.ids))], true
}

// readLoop is the status reader: one request outstanding at a time, as
// many reads as the writer's submits grant.
func (r *round) readLoop() {
	for {
		id, ok := r.polls.next(r.pollRng.Intn)
		if !ok {
			return
		}
		r.poll(r.rplat, r.rdr, id)
	}
}

// analytics runs a finished build's queries on the writer's connection.
func (r *round) analytics(key int) {
	id := r.buildID(key)
	for _, q := range r.p.builds[key].queries {
		r.drv.begin(layerRemote, "client.analytics", id)
		t0 := time.Now()
		res, err := r.wplat.Analytics(context.Background(), id, q.q)
		d := time.Since(t0)
		r.drv.end()
		r.res.op(err)
		if err != nil {
			r.res.checkf("analytics of build %d: %v", id, err)
			continue
		}
		r.res.analyticsMS.add(ms(d))
		if hd, ok := r.hw.take(r.writer.lastKey()); ok {
			r.res.clientOverhead.add(float64(d-hd) / 1e3)
		}
		r.res.answers = append(r.res.answers, answer{key: key, q: q.q, got: res})
	}
}

// follow is the stream follower: each followed build's binary sample
// stream, in submit order, once the build has samples buffered.
func (r *round) follow() {
	n := 0
	for key := range r.p.builds {
		if r.w.federated && !r.p.builds[key].peer {
			continue
		}
		select {
		case <-r.recs[key].first:
		case <-r.abort:
			return
		}
		id := r.buildID(key)
		if id == 0 {
			continue
		}
		viaGW := r.w.gateway && n%2 == 1
		n++
		r.followOne(key, id, viaGW)
	}
}

// countReader counts the bytes a stream delivered.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (r *round) followOne(key, id int, viaGW bool) {
	plat, ly, path := r.fdirect, layerRemote, "direct"
	if viaGW {
		plat, ly, path = r.fgw, layerFeedgw, "gateway"
	}
	ln := r.flw
	t0 := time.Now()
	ln.begin(ly, "client.stream_open", id)
	body, err := plat.OpenStream(context.Background(), fmt.Sprintf("/api/v1/builds/%d/samples", id))
	ln.end()
	r.res.op(err)
	if err != nil {
		r.res.checkf("opening build %d's %s stream: %v", id, path, err)
		return
	}
	defer body.Close()
	cr := &countReader{r: body}
	br := bufio.NewReaderSize(cr, 64<<10)
	n, hash := 0, uint64(hashSeed)
	var open time.Duration
	for {
		if _, err := br.Peek(1); err != nil {
			if err != io.EOF {
				r.res.checkf("reading build %d's %s stream: %v", id, path, err)
			}
			break
		}
		t1 := time.Now()
		pts, err := api.ReadSampleFrame(br)
		ln.call(layerAPI, obsDecode, time.Since(t1))
		if err != nil {
			r.res.checkf("decoding build %d's %s stream: %v", id, path, err)
			break
		}
		if open == 0 {
			open = time.Since(t0)
		}
		for _, p := range pts {
			n++
			hash = sampleHash(hash, p.AtNS, p.CurrentMA)
		}
	}
	r.res.addStream(path, n, cr.n, open, time.Since(t0))
	wantN, wantHash, _ := r.recs[key].snapshot()
	if n != wantN || hash != wantHash {
		r.res.checkf("build %d's %s stream delivered %d samples (digest %x), the run posted %d (digest %x)",
			id, path, n, hash, wantN, wantHash)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
