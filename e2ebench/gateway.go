package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gateway"
)

const (
	gatewayToken = "e2ebench-token"
	// gatewayClients is the closed-loop client count: each runs back-to-back
	// sessions.
	gatewayClients = 2
	// reqHeader carries the traced run's request id from client to handler.
	reqHeader = "X-E2ebench-Request"
)

var gatewayLoad = &workload{
	name:        "gateway",
	why:         "the serving path users see; session create pays for zombie memory",
	unit:        "requests",
	sample:      "request (client-observed)",
	digestIters: 2,
	setup:       setupGateway,
}

// requestsPerSession is how many requests one client issues per session
// (create and delete included).
func (o options) requestsPerSession() int {
	if o.tiny {
		return 6
	}
	return 40
}

// gatewayInst is an in-process gateway on a loopback listener and the
// measuring client in front of it.
type gatewayInst struct {
	srv    *gateway.Server
	hs     *http.Server
	served chan struct{}
	url    string
	rt     *recordingTransport
	client *http.Client
	tr     *tracer

	placed, refused int
}

func setupGateway(p *phase) (instance, error) {
	srv := gateway.New(gateway.Config{Token: gatewayToken, QuotaLimit: 1 << 30})
	var h http.Handler = srv.Handler()
	if p.tr != nil {
		h = tracedHandler{h: h, tr: p.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	in := &gatewayInst{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		rt:     &recordingTransport{base: &http.Transport{MaxIdleConnsPerHost: gatewayClients}, tr: p.tr},
		tr:     p.tr,
	}
	in.client = &http.Client{Transport: in.rt}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	// Warm the server and the connection pool with one session per client.
	if _, err := in.load(-1, 2); err != nil {
		in.close()
		return nil, err
	}
	if err := in.checkSamples(nil, in.rt.take()); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	in.rt.creates = nil
	return in, nil
}

// load runs one RunLoad round: every client opens a session, issues its
// mixed requests and deletes it.
func (in *gatewayInst) load(seed int64, requests int) (gateway.LoadReport, error) {
	return gateway.RunLoad(gateway.LoadConfig{
		Target:   in.url,
		Token:    gatewayToken,
		Clients:  gatewayClients,
		Requests: requests,
		Seed:     seed,
		Client:   in.client,
	})
}

func (in *gatewayInst) iterate(p *phase, i int) {
	reqs := p.opts.requestsPerSession()
	rep, err := in.load(p.seedFor(i)*gatewayClients, reqs)
	samples := in.rt.take()
	if err != nil {
		p.lost(gatewayClients*reqs, err)
		return
	}
	for _, s := range samples {
		p.done(1, s.lat)
	}
	in.checkSamples(p, samples)
	if rep.Total != len(samples) || rep.Errors != 0 || rep.Server5xx != 0 || rep.RateLimited != 0 {
		p.checked(fmt.Errorf("load report: %d requests (client saw %d), %d transport errors, %d 5xx, %d rate-limited",
			rep.Total, len(samples), rep.Errors, rep.Server5xx, rep.RateLimited))
	}
	if p.digesting(i) {
		p.digestf("gateway %d %s\n", i, sessionDigest(samples))
	}
}

// expectedStatus is the status each endpoint answers a well-formed request
// with. A placement refused for capacity is a correct answer: it comes back
// as 200 with a per-VM error, or 409 when the whole batch is refused.
var expectedStatus = map[string][]int{
	"create":    {http.StatusCreated},
	"place":     {http.StatusOK, http.StatusConflict},
	"workloads": {http.StatusOK},
	"report":    {http.StatusOK},
	"delete":    {http.StatusNoContent},
}

// checkStatus reports whether one response is a correct answer.
func checkStatus(s sample) error {
	if s.err != nil {
		return fmt.Errorf("%s %s: transport error: %v", s.endpoint, s.path, s.err)
	}
	for _, want := range expectedStatus[s.endpoint] {
		if s.status == want {
			return nil
		}
	}
	return fmt.Errorf("%s %s: unexpected status %d: %.200s", s.endpoint, s.path, s.status, s.body)
}

// checkSamples checks every response, records each wrong one and the
// placement refusals in p, and returns the first failure. p is nil for the
// warm-up, which only has to succeed.
func (in *gatewayInst) checkSamples(p *phase, samples []sample) error {
	var first error
	for _, s := range samples {
		err := checkStatus(s)
		if err != nil && first == nil {
			first = err
		}
		if p == nil {
			continue
		}
		if err != nil {
			p.wrong(1, err)
			continue
		}
		if s.endpoint == "place" {
			tried, refused := placements(s)
			in.placed += tried
			in.refused += refused
		}
	}
	return first
}

// placements counts the VMs a place response tried and refused.
func placements(s sample) (tried, refused int) {
	if s.status == http.StatusConflict {
		return 1, 1
	}
	var body struct {
		Placements []struct {
			Error string `json:"error"`
		} `json:"placements"`
	}
	if json.Unmarshal(s.body, &body) != nil {
		return 0, 0
	}
	for _, pl := range body.Placements {
		tried++
		if pl.Error != "" {
			refused++
		}
	}
	return tried, refused
}

// sessionDigest folds the simulated outputs of one round: per session, the
// ordered endpoints, statuses and bodies with the session id normalised
// (ids depend on which client reached the server first), the report reduced
// to its fleet figures (its metrics snapshot counts host-side events). The
// per-session digests are sorted, so client scheduling does not matter.
func sessionDigest(samples []sample) string {
	per := map[string]*bytes.Buffer{}
	for _, s := range samples {
		id := ""
		if s.endpoint == "create" {
			var cr struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(s.body, &cr) // an empty id digests as such
			id = cr.ID
		} else {
			id = sessionOf(s.path)
		}
		body := s.body
		if s.endpoint == "report" {
			var rep struct {
				Fleet json.RawMessage `json:"fleet"`
			}
			_ = json.Unmarshal(s.body, &rep)
			body = rep.Fleet
		}
		if id != "" {
			body = bytes.ReplaceAll(body, []byte(`"`+id+`"`), []byte(`"S"`))
			body = bytes.ReplaceAll(body, []byte(id+`-vm-`), []byte(`S-vm-`))
		}
		b := per[id]
		if b == nil {
			b = &bytes.Buffer{}
			per[id] = b
		}
		fmt.Fprintf(b, "%s %d %s\n", s.endpoint, s.status, body)
	}
	sums := make([]string, 0, len(per))
	for _, b := range per {
		h := sha256.Sum256(b.Bytes())
		sums = append(sums, hex.EncodeToString(h[:]))
	}
	sort.Strings(sums)
	return strings.Join(sums, ",")
}

// sessionOf extracts the session id from /v1/fleets/{id}[/...].
func sessionOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/fleets/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// endpointOf names the load profile entry a request belongs to.
func endpointOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/fleets":
		return "create"
	case method == http.MethodDelete:
		return "delete"
	case strings.HasSuffix(path, "/vms"):
		return "place"
	case strings.HasSuffix(path, "/workloads"):
		return "workloads"
	case strings.HasSuffix(path, "/report"):
		return "report"
	}
	return "other"
}

func (in *gatewayInst) finish(p *phase) error {
	if in.placed > 0 {
		p.counts["gateway.place_refused_frac"] = float64(in.refused) / float64(in.placed)
	}
	creates := in.rt.creates
	sort.Slice(creates, func(i, j int) bool { return creates[i] < creates[j] })
	p.counts["gateway.create_p50_ms"] = float64(nearestRank(creates, 50)) / 1e6
	p.counts["gateway.req_p99_ms"] = float64(nearestRank(sortedLatencies(p), 99)) / 1e6
	if in.tr != nil {
		p.counts["gateway.client_overhead_ms"] = clientOverheadMs(in.tr)
	}
	return in.measureLent(p)
}

// measureLent opens one quiescent session, reads the DRAM its zombie lends
// from the report, and records the heap the session holds beside it.
func (in *gatewayInst) measureLent(p *phase) error {
	do := func(method, path, body string) (sample, error) {
		req, err := http.NewRequest(method, in.url+path, strings.NewReader(body))
		if err != nil {
			return sample{}, err
		}
		req.Header.Set("Authorization", "Bearer "+gatewayToken)
		resp, err := in.client.Do(req)
		if err != nil {
			return sample{}, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		s := sample{endpoint: endpointOf(method, req.URL.Path), path: req.URL.Path, status: resp.StatusCode, body: b, err: err}
		return s, checkStatus(s)
	}
	defer in.rt.take()
	created, err := do(http.MethodPost, "/v1/fleets", gatewayCreateBody)
	if err != nil {
		return err
	}
	var cr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(created.body, &cr); err != nil {
		return fmt.Errorf("decoding create response: %w", err)
	}
	rep, err := do(http.MethodGet, "/v1/fleets/"+cr.ID+"/report", "")
	if err != nil {
		return err
	}
	var r struct {
		Fleet struct {
			RemoteGiB float64 `json:"remote_gib"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(rep.body, &r); err != nil {
		return fmt.Errorf("decoding report: %w", err)
	}
	return p.heapPerLent(int64(r.Fleet.RemoteGiB*(1<<30)), func() error {
		_, err := do(http.MethodDelete, "/v1/fleets/"+cr.ID, "")
		return err
	})
}

// gatewayCreateBody is the session RunLoad's profile creates: one rack of
// three 2 GiB servers, one of them a zombie.
const gatewayCreateBody = `{"racks":1,"servers":3,"mem_gib":2,"workers":1,"zombies_per_rack":1}`

func (in *gatewayInst) close() {
	_ = in.hs.Close() // the listener error is irrelevant once serving stops
	<-in.served
	in.rt.base.CloseIdleConnections()
	in.srv.Close()
}

// sample is one client-observed request.
type sample struct {
	endpoint, path string
	status         int
	err            error
	lat            time.Duration
	body           []byte
}

// recordingTransport is the measuring client: it times each request from
// the call until its body is closed and keeps the response for the checks.
// In the traced run it also opens the request's client span and passes its
// id to the handler in a header.
type recordingTransport struct {
	base *http.Transport
	tr   *tracer

	mu      sync.Mutex
	samples []sample
	creates []int64 // client-observed create latencies, ns
}

func (t *recordingTransport) record(s sample) {
	t.mu.Lock()
	t.samples = append(t.samples, s)
	if s.endpoint == "create" && s.err == nil {
		t.creates = append(t.creates, int64(s.lat))
	}
	t.mu.Unlock()
}

// take returns and clears the recorded samples.
func (t *recordingTransport) take() []sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.samples
	t.samples = nil
	return s
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := sample{endpoint: endpointOf(req.Method, req.URL.Path), path: req.URL.Path}
	l := t.tr.lane()
	if l != nil {
		id := l.begin("gateway.client." + s.endpoint)
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, strconv.FormatUint(l.req, 10)+"/"+strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.lat, s.err = time.Since(start), err
		l.end()
		l.close()
		t.record(s)
		return nil, err
	}
	s.status = resp.StatusCode
	resp.Body = &recordingBody{rc: resp.Body, t: t, s: s, start: start, l: l}
	return resp, nil
}

// recordingBody buffers the response and records the sample on Close.
type recordingBody struct {
	rc    io.ReadCloser
	t     *recordingTransport
	s     sample
	start time.Time
	l     *lane
	buf   bytes.Buffer
	done  bool
}

func (b *recordingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.buf.Write(p[:n])
	return n, err
}

func (b *recordingBody) Close() error {
	err := b.rc.Close()
	if b.done {
		return err
	}
	b.done = true
	b.s.lat = time.Since(b.start)
	b.l.end()
	b.l.close()
	b.s.body = b.buf.Bytes()
	b.t.record(b.s)
	return err
}

// tracedHandler opens the handler span of each request under the client
// span named in its header.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req, parent uint64
	if v := r.Header.Get(reqHeader); v != "" {
		a, b, _ := strings.Cut(v, "/")
		req, _ = strconv.ParseUint(a, 10, 64)
		parent, _ = strconv.ParseUint(b, 10, 64)
	}
	l := t.tr.laneFor(req, parent)
	l.begin("gateway.handler." + endpointOf(r.Method, r.URL.Path))
	t.h.ServeHTTP(w, r)
	l.end()
	l.close()
}

// clientOverheadMs is the mean client-observed time a request spends
// outside its handler: client span minus the handler span of the same
// request.
func clientOverheadMs(tr *tracer) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	client := map[uint64]int64{}
	handler := map[uint64]int64{}
	for _, s := range tr.spans {
		switch {
		case strings.HasPrefix(s.name, "gateway.client."):
			client[s.req] = s.end - s.start
		case strings.HasPrefix(s.name, "gateway.handler."):
			handler[s.req] = s.end - s.start
		}
	}
	var sum int64
	n := 0
	for req, c := range client {
		if h, ok := handler[req]; ok {
			sum += c - h
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}
