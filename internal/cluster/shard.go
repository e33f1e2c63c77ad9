package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"vexus/internal/membership"
	"vexus/internal/serve"
)

// Shard is one session-owning backend as the gateway sees it: a name
// (the rendezvous-hash identity — it must be stable across restarts,
// or every restart migrates every session) and a way to reach its HTTP
// surface. Two constructors cover the two deployment shapes:
// RemoteShard speaks TCP to a `vexus-server -shard` process, and
// LocalShard calls a serve.Server's handler in-process — the mode
// tests and benchmarks use to stand up a whole cluster in one process
// with zero sockets.
type Shard struct {
	name   string
	addr   string // "" for in-process shards
	base   string // URL prefix outbound requests are rewritten onto
	secret string // cluster shared secret, attached to every outbound hop
	client *http.Client
	// streamer issues requests whose responses are open-ended (the SSE
	// diff stream): no response timeout, and a transport that hands the
	// body over as it is written rather than when the handler returns.
	// The regular client is wrong on both counts — its 30s timeout
	// would kill a quiet stream at the first missed heartbeat window,
	// and the recorder transport buffers the complete response.
	streamer *http.Client
}

// RemoteShard points at a shard worker listening on addr
// ("host:port"). The name doubles as the hash identity, so use the
// same name for the same logical shard across gateway restarts —
// the address itself is the natural choice.
func RemoteShard(name, addr string) *Shard {
	return &Shard{
		name: name,
		addr: addr,
		base: "http://" + addr,
		// Shard calls are LAN-local; a bounded client keeps one hung
		// shard from wedging gateway request goroutines forever. Streams
		// are the exception: they live as long as the subscriber, so
		// their client bounds the dial, not the response.
		client:   &http.Client{Timeout: 30 * time.Second},
		streamer: &http.Client{},
	}
}

// LocalShard wraps an in-process serve.Server handler as a shard. The
// transport dispatches straight into ServeHTTP on the caller's
// goroutine — no listener, no ports — so an N-shard cluster plus
// gateway is just N+1 handlers in one test binary.
func LocalShard(name string, h http.Handler) *Shard {
	return &Shard{
		name:     name,
		base:     "http://" + name,
		client:   &http.Client{Transport: handlerTransport{h: h}},
		streamer: &http.Client{Transport: streamTransport{h: h}},
	}
}

// orSecret sets the cluster shared secret attached (as
// membership.SecretHeader) to every request this client issues, unless
// the shard already carries one, and returns s (which may be nil). The
// gateway stamps its own secret onto every shard it admits, so
// constructors don't need it.
func (s *Shard) orSecret(secret string) *Shard {
	if s != nil && s.secret == "" {
		s.secret = secret
	}
	return s
}

// ServeInProcess answers req by calling h on the caller's goroutine
// and returns the recorded response. httptest's recorder is the
// stdlib's canonical ResponseWriter-to-Response bridge; using it
// outside a _test file is deliberate — the in-process cluster is
// production code for benchmarks and embedded deployments.
func ServeInProcess(h http.Handler, req *http.Request) *http.Response {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	res.Request = req
	return res
}

// StreamInProcess answers a request whose response is open-ended by
// running h on its own goroutine against a pipe: it returns as soon as
// the handler commits response headers, and every byte the handler
// writes after that is readable from the response body immediately.
// This is the in-process equivalent of what a real TCP transport does
// for a streaming response — exactly what ServeInProcess cannot do,
// since it only produces a response once the handler has returned.
// The goroutine keeps h until the handler returns, so a caller that
// swaps handlers leaves open streams on the old one.
func StreamInProcess(h http.Handler, req *http.Request) *http.Response {
	pr, pw := io.Pipe()
	sw := &streamRecorder{header: make(http.Header), pw: pw, ready: make(chan struct{})}
	go func() {
		h.ServeHTTP(sw, req)
		sw.commit(http.StatusOK) // no-op unless the handler never wrote
		pw.Close()
	}()
	<-sw.ready
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", sw.status, http.StatusText(sw.status)),
		StatusCode:    sw.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        sw.snapshot,
		Body:          pr,
		ContentLength: -1,
		Request:       req,
	}
}

// handlerTransport and streamTransport are LocalShard's two clients'
// transports over ServeInProcess and StreamInProcess.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return ServeInProcess(t.h, req), nil
}

type streamTransport struct{ h http.Handler }

func (t streamTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return StreamInProcess(t.h, req), nil
}

// streamRecorder is the ResponseWriter behind StreamInProcess. The
// header snapshot is cloned inside the commit Once, so RoundTrip's
// reader and the handler goroutine never share a mutable map. The
// handler sees an http.Flusher (the serve-side SSE handler refuses
// writers without one), but flushing is a no-op: pipe writes already
// block until the reader takes them.
type streamRecorder struct {
	header   http.Header
	pw       *io.PipeWriter
	once     sync.Once
	status   int
	snapshot http.Header
	ready    chan struct{}
}

func (s *streamRecorder) Header() http.Header  { return s.header }
func (s *streamRecorder) WriteHeader(code int) { s.commit(code) }
func (s *streamRecorder) Flush()               {}

func (s *streamRecorder) commit(code int) {
	s.once.Do(func() {
		s.status = code
		s.snapshot = s.header.Clone()
		close(s.ready)
	})
}

func (s *streamRecorder) Write(p []byte) (int, error) {
	s.commit(http.StatusOK)
	return s.pw.Write(p)
}

// send issues one request against the shard through client: s.client
// for bounded calls, or s.streamer for responses that are open-ended
// (the SSE diff stream) or may outlive the bounded client's 30s (the
// warm-join snapshot legs), whose bodies arrive as the shard writes
// them. path must start with "/" and may carry a query string; body
// may be nil. Cancelling ctx tears the request down end to end — for
// an in-process shard the handler shares the context directly, and for
// a remote one the client closes the connection, which the shard-side
// handler observes the same way.
func (s *Shard) send(ctx context.Context, client *http.Client, method, path string, header http.Header, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, body)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	if s.secret != "" {
		req.Header.Set(membership.SecretHeader, s.secret)
	}
	res, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", s.name, err)
	}
	return res, nil
}

// getJSON fetches path (with the given headers, which may be nil) and
// decodes the JSON body into v, treating any non-200 as an error.
func (s *Shard) getJSON(path string, header http.Header, v any) error {
	res, err := s.send(context.Background(), s.client, http.MethodGet, path, header, nil)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return fmt.Errorf("shard %s: GET %s: status %d: %s", s.name, path, res.StatusCode, msg)
	}
	if err := json.NewDecoder(res.Body).Decode(v); err != nil {
		return fmt.Errorf("shard %s: GET %s: %w", s.name, path, err)
	}
	return nil
}

// sessions lists the shard's live sessions — the authoritative
// residency view drain and join sweeps are driven from.
func (s *Shard) sessions() ([]serve.ShardSessionInfo, error) {
	var out []serve.ShardSessionInfo
	if err := s.getJSON("/internal/cluster/sessions", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseShards validates a comma-separated -shards address list against
// the gateway's own listen address. Blank entries are skipped (a
// trailing comma is not an error); a duplicate or self-referential
// entry is — both configure a cluster that routes requests into a
// loop or double-counts a member, and the misconfigured entry is named
// so the error points at the flag value to fix. The shard name *is*
// the rendezvous identity, so "the same shard listed twice" and "two
// shards with one name" are the same bug.
func ParseShards(raw, self string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	for _, field := range strings.Split(raw, ",") {
		addr := strings.TrimSpace(field)
		if addr == "" {
			continue
		}
		if seen[addr] {
			return nil, fmt.Errorf("cluster: -shards lists %q more than once", addr)
		}
		if selfReferential(addr, self) {
			return nil, fmt.Errorf("cluster: -shards entry %q is the gateway's own address %q (a gateway cannot be its own shard)", addr, self)
		}
		seen[addr] = true
		out = append(out, addr)
	}
	return out, nil
}

// selfReferential reports whether a shard address would dial back into
// the gateway listening on self: an exact match, or the same port with
// one side on a wildcard/loopback host (":8080" and "localhost:8080"
// name the same listener).
func selfReferential(addr, self string) bool {
	if self == "" {
		return false
	}
	if addr == self {
		return true
	}
	ah, ap, aerr := net.SplitHostPort(addr)
	sh, sp, serr := net.SplitHostPort(self)
	if aerr != nil || serr != nil || ap != sp {
		return false
	}
	local := func(h string) bool {
		switch h {
		case "", "0.0.0.0", "::", "localhost", "127.0.0.1", "::1":
			return true
		}
		return false
	}
	return ah == sh || (local(ah) && local(sh))
}
