package broker

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nlarm/internal/canon"
	"nlarm/internal/obs"
)

// errNoManager is the rejection for submit/job/queue actions on a server
// built without a job manager.
var errNoManager = errors.New("server has no job manager")

// wireRequest is the newline-delimited JSON protocol envelope.
type wireRequest struct {
	// ID is the client's request identifier, echoed verbatim on the
	// response so a pipelined client can keep many requests in flight on
	// one connection and match answers by ID. 0 (or absent) is valid for
	// strictly serial clients: responses to a connection that never
	// pipelines still come back in order.
	ID uint64 `json:"id,omitempty"`
	// Tenant labels the request for admission control and fairness
	// accounting. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Action is "allocate", "policies", "health", "metrics", "decisions",
	// or — when the server has a Manager — "submit", "job", "queue".
	Action  string         `json:"action"`
	Request Request        `json:"request,omitempty"`
	Submit  *SubmitRequest `json:"submit,omitempty"`
	JobID   int            `json:"job_id,omitempty"`
	// Limit caps how many decision records a "decisions" action returns
	// (0 = all retained).
	Limit int `json:"limit,omitempty"`
}

type wireResponse struct {
	// ID echoes the request's ID (0 for unsolicited errors such as an
	// unparseable line, where no ID could be read).
	ID    uint64 `json:"id,omitempty"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Shed marks an admission-control rejection; RetryAfterMS is the
	// server's retry hint in milliseconds and ShedReason the cause
	// ("rate", "queue-full", "inflight").
	Shed         bool        `json:"shed,omitempty"`
	RetryAfterMS int64       `json:"retry_after_ms,omitempty"`
	ShedReason   string      `json:"shed_reason,omitempty"`
	Response     *Response   `json:"response,omitempty"`
	Policies     []string    `json:"policies,omitempty"`
	Health       string      `json:"health,omitempty"`
	JobID        int         `json:"job_id,omitempty"`
	Job          *JobInfo    `json:"job,omitempty"`
	Queue        *QueueStats `json:"queue,omitempty"`
	// Metrics is the structured registry snapshot and MetricsText its
	// deterministic rendering ("metrics" action).
	Metrics     *obs.Snapshot `json:"metrics,omitempty"`
	MetricsText string        `json:"metrics_text,omitempty"`
	// Decisions is the recent allocation decision log ("decisions" action).
	Decisions []DecisionRecord `json:"decisions,omitempty"`
}

// shedResponse builds the wire form of an admission rejection.
func shedResponse(id uint64, e *ShedError) wireResponse {
	return wireResponse{
		ID:           id,
		Error:        e.Error(),
		Shed:         true,
		RetryAfterMS: int64(e.RetryAfter / time.Millisecond),
		ShedReason:   e.Reason,
	}
}

// ServerOptions harden the wire protocol against misbehaving clients and
// configure the batched front door.
type ServerOptions struct {
	// ReadTimeout is the per-line read deadline: a connection that sends
	// no complete line for this long is closed, so a stalled client can
	// never pin a serving goroutine forever. Default 2 minutes; negative
	// disables the deadline.
	ReadTimeout time.Duration
	// MaxLineBytes caps one request line. A longer line gets a single
	// error response, then the connection closes. Default 1 MiB.
	MaxLineBytes int
	// Batching tunes the Batcher every allocate and submit request goes
	// through: admission control, per-tenant fairness, and batch pricing
	// against one snapshot generation. Nil means default BatcherOptions.
	// Responses to batched requests may return out of order; pipelined
	// clients match them by request ID.
	Batching *BatcherOptions
	// MaxInflight caps outstanding batched requests per connection;
	// excess requests are shed with reason "inflight". 0 means the
	// default 1024; negative disables the cap.
	MaxInflight int
}

// writeTimeout bounds every response write. Without it a client that
// stops reading would eventually block a batch flush on its full TCP
// send buffer — pinning the dispatcher the way stalled readers once
// pinned serving goroutines. On expiry the connection is closed and the
// batch moves on.
const writeTimeout = time.Minute

func (o ServerOptions) withDefaults() ServerOptions {
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 2 * time.Minute
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = 1 << 20
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 1024
	}
	return o
}

// connWriter serializes and buffers one connection's responses. Control
// responses flush immediately; batched responses accumulate in the
// buffer and are flushed once per batch (the write-side amortization
// that, with request pipelining, turns one syscall per response into one
// per connection per batch).
type connWriter struct {
	conn     net.Conn
	mu       sync.Mutex
	buf      []byte
	err      error
	inflight atomic.Int64
	// eof is set once the reader has seen a clean end of input; a reply
	// that then takes inflight to zero signals idle (capacity 1: a
	// signal nobody has consumed yet already says "look again").
	eof   atomic.Bool
	idle  chan struct{}
	dirty bool // on the server's dirty list (guarded by Server.dirtyMu)
}

func newConnWriter(conn net.Conn) *connWriter {
	return &connWriter{conn: conn, idle: make(chan struct{}, 1)}
}

// finish records a write failure and closes the connection so the
// reader goroutine unblocks promptly. Must hold mu.
func (cw *connWriter) finish() error {
	if cw.err != nil {
		cw.conn.Close()
	}
	return cw.err
}

// encode appends json.Encoder's bytes for resp, with ans (if set) as its
// Response, to the buffer without touching the socket. Only the
// encoding/json path lets values escape, and it escapes copies.
func (cw *connWriter) encode(resp *wireResponse, ans *Response) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil {
		return cw.err
	}
	e := canon.Encoder{B: cw.buf, OK: true}
	if appendResponse(&e, resp, cmp.Or(ans, resp.Response)); e.OK {
		cw.buf = e.B
		return nil
	}
	wireFallbacks[endResponseEncode].Add(1)
	w := *resp
	if ans != nil {
		a := *ans
		w.Response = &a
	}
	cw.buf, cw.err = appendJSON(cw.buf, &w)
	return cw.finish()
}

// flush pushes buffered responses to the socket under the write
// deadline.
func (cw *connWriter) flush() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err != nil || len(cw.buf) == 0 {
		return cw.err
	}
	_ = cw.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, cw.err = cw.conn.Write(cw.buf)
	if cw.buf = cw.buf[:0]; cap(cw.buf) > 64<<10 {
		cw.buf = nil // a one-off large answer is not kept per connection
	}
	return cw.finish()
}

// send encodes and flushes one response (control actions, sheds, errors).
func (cw *connWriter) send(resp wireResponse) error {
	if err := cw.encode(&resp, nil); err != nil {
		return err
	}
	return cw.flush()
}

// drain runs on the reader goroutine after a clean EOF, when no further
// request can arrive: it waits until every batched request already
// accepted has been answered, for at most the write timeout, and flushes
// the answers to a peer that may have closed only its write side.
func (cw *connWriter) drain() {
	cw.eof.Store(true)
	bound := time.NewTimer(writeTimeout)
	defer bound.Stop()
wait:
	for cw.inflight.Load() > 0 {
		select {
		case <-cw.idle:
		case <-bound.C:
			break wait
		}
	}
	_ = cw.flush() // the connection closes next either way
}

// Server exposes a Broker over TCP with a newline-delimited JSON
// protocol: one request object per line, one response object per line
// (responses to pipelined batched requests may be reordered; match by
// ID).
type Server struct {
	b       *Broker
	mgr     Manager // optional job-submission backend
	ln      net.Listener
	opts    ServerOptions
	batcher *Batcher

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// dirty lists the writers holding unflushed batch responses; spare
	// is flushDirty's previous list, kept for reuse.
	dirtyMu sync.Mutex
	dirty   []*connWriter
	spare   []*connWriter
}

// NewServerOpts starts serving b on addr (e.g. "127.0.0.1:7077"; use
// port 0 for an ephemeral port) with the given protocol limits and
// batcher options; the returned server is already accepting. The
// submit/job/queue wire actions are enabled when mgr is non-nil.
func NewServerOpts(b *Broker, mgr Manager, addr string, opts ServerOptions) (*Server, error) {
	return newServer(b, mgr, addr, opts, true)
}

// newServer builds the server and its batcher. dispatch false leaves the
// batcher without a dispatcher goroutine, so queued requests are priced
// only by explicit Flush calls (deterministic tests).
func newServer(b *Broker, mgr Manager, addr string, opts ServerOptions, dispatch bool) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("broker: listen %s: %w", addr, err)
	}
	s := &Server{
		b: b, mgr: mgr, ln: ln, opts: opts.withDefaults(),
		conns: make(map[net.Conn]struct{}),
	}
	var bo BatcherOptions
	if opts.Batching != nil {
		bo = *opts.Batching
	}
	s.batcher = NewBatcher(b, mgr, bo)
	// Buffered batch responses reach the socket once per batch.
	s.batcher.afterBatch = s.flushDirty
	if dispatch {
		s.batcher.Start()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// markDirty registers a connection writer holding unflushed batch
// responses; flushDirty runs at the end of every batch.
func (s *Server) markDirty(cw *connWriter) {
	s.dirtyMu.Lock()
	if !cw.dirty {
		cw.dirty = true
		s.dirty = append(s.dirty, cw)
	}
	s.dirtyMu.Unlock()
}

// flushDirty runs as the batcher's afterBatch, under its flushMu, so two
// never overlap and the list it swaps out is its own until the next one.
func (s *Server) flushDirty() {
	s.dirtyMu.Lock()
	dirty := s.dirty
	s.dirty, s.spare = s.spare[:0], dirty
	for _, cw := range dirty {
		cw.dirty = false
	}
	s.dirtyMu.Unlock()
	for _, cw := range dirty {
		_ = cw.flush() // write errors surface as the conn's read loop exits
	}
	clear(dirty)
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	scanner := bufio.NewScanner(conn)
	// Scanner's limit is max(limit, cap(buf)): keep the initial buffer at
	// or below MaxLineBytes so the cap actually binds.
	bufCap := 64 * 1024
	if bufCap > s.opts.MaxLineBytes {
		bufCap = s.opts.MaxLineBytes
	}
	scanner.Buffer(make([]byte, 0, bufCap), s.opts.MaxLineBytes)
	cw := newConnWriter(conn)
	for {
		if s.opts.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		if !scanner.Scan() {
			switch err := scanner.Err(); {
			case err == nil:
				// Clean EOF: a client that half-closed after its last
				// request (echo … | nc) is still reading.
				cw.drain()
			case errors.Is(err, bufio.ErrTooLong):
				// An over-long line is a protocol violation, not a
				// transport failure: answer it once, then close cleanly.
				_ = cw.send(wireResponse{Error: fmt.Sprintf("bad request: line exceeds %d bytes", s.opts.MaxLineBytes)})
			}
			return
		}
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		req, err := unmarshalWire[wireRequest](line)
		if err != nil {
			if cw.send(wireResponse{Error: fmt.Sprintf("bad request: %v", err)}) != nil {
				return
			}
			continue
		}
		if req.Action == "allocate" || req.Action == "submit" {
			s.dispatchBatched(cw, req)
			continue
		}
		resp := s.handle(req)
		resp.ID = req.ID
		if cw.send(resp) != nil {
			return
		}
	}
}

// dispatchBatched admits one allocate/submit request into the batcher.
// The response is written by the batch that serves it; sheds and
// enqueue failures are answered immediately. The reader goroutine never
// blocks on pricing, which is what lets one connection pipeline many
// requests.
func (s *Server) dispatchBatched(cw *connWriter, req wireRequest) {
	id := req.ID
	if s.opts.MaxInflight > 0 && cw.inflight.Load() >= int64(s.opts.MaxInflight) {
		shed := &ShedError{Tenant: req.Tenant, RetryAfter: 10 * time.Millisecond, Reason: "inflight"}
		s.b.countShed(shed)
		_ = cw.send(shedResponse(id, shed))
		return
	}
	cw.inflight.Add(1)
	var err error
	switch {
	case req.Action == "allocate":
		err = s.batcher.EnqueueAllocate(req.Tenant, req.Request, func(resp Response, aerr error) {
			if aerr != nil {
				s.reply(cw, wireResponse{ID: id, Error: aerr.Error(), Shed: errors.Is(aerr, ErrShed)}, nil)
				return
			}
			s.reply(cw, wireResponse{ID: id, OK: true}, &resp)
		})
	case s.mgr == nil:
		err = errNoManager
	case req.Submit == nil:
		err = errors.New("submit action without submit payload")
	default:
		err = s.batcher.EnqueueSubmit(req.Tenant, *req.Submit, func(jobID int, serr error) {
			if serr != nil {
				s.reply(cw, wireResponse{ID: id, Error: serr.Error()}, nil)
				return
			}
			s.reply(cw, wireResponse{ID: id, OK: true, JobID: jobID}, nil)
		})
	}
	if err == nil {
		return
	}
	// Never queued: the callback will not run, answer now.
	cw.inflight.Add(-1)
	var shed *ShedError
	if errors.As(err, &shed) {
		_ = cw.send(shedResponse(id, shed))
	} else {
		_ = cw.send(wireResponse{ID: id, Error: err.Error()})
	}
}

// reply buffers the response of a request a batch served; the batch's
// flush sends it.
func (s *Server) reply(cw *connWriter, wr wireResponse, ans *Response) {
	if cw.encode(&wr, ans) == nil {
		s.markDirty(cw)
	}
	if cw.inflight.Add(-1) == 0 && cw.eof.Load() {
		select {
		case cw.idle <- struct{}{}:
		default:
		}
	}
}

// handle answers a control action inline on the reader goroutine;
// allocate and submit never reach it (serveConn routes them through
// dispatchBatched).
func (s *Server) handle(req wireRequest) wireResponse {
	switch req.Action {
	case "policies":
		return wireResponse{OK: true, Policies: s.b.Policies()}
	case "health":
		return wireResponse{OK: true, Health: "ok"}
	case "metrics":
		snap := s.b.Obs().Snapshot()
		return wireResponse{OK: true, Metrics: snap, MetricsText: snap.Render()}
	case "decisions":
		recs := s.b.Decisions(req.Limit)
		if recs == nil {
			recs = []DecisionRecord{}
		}
		return wireResponse{OK: true, Decisions: recs}
	case "job":
		if s.mgr == nil {
			return wireResponse{Error: errNoManager.Error()}
		}
		info, ok := s.mgr.Status(req.JobID)
		if !ok {
			return wireResponse{Error: fmt.Sprintf("no job %d", req.JobID)}
		}
		return wireResponse{OK: true, Job: &info}
	case "queue":
		if s.mgr == nil {
			return wireResponse{Error: errNoManager.Error()}
		}
		qs := s.mgr.QueueStats()
		return wireResponse{OK: true, Queue: &qs}
	default:
		return wireResponse{Error: fmt.Sprintf("unknown action %q", req.Action)}
	}
}

// Close stops accepting, shuts down the batcher (answering still-queued
// requests with ErrBatcherClosed while their connections are open), and
// tears down open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	// Batches in flight complete and their responses flush to still-open
	// connections; the queue drains with errors.
	s.batcher.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
