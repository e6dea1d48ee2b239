package broker

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"nlarm/internal/obs"
)

// errClientClosed reports a round trip attempted on (or interrupted by)
// a closed client.
var errClientClosed = errors.New("broker: connection closed")

// clientMaxInflight caps one connection's concurrently outstanding
// requests; further calls block until a slot frees. It sits under the
// server's default per-connection MaxInflight (1024), past which the
// server sheds the excess.
const clientMaxInflight = 256

// Client talks to a broker Server over one pipelined connection. It is
// safe for concurrent use: every request carries a unique ID, writes are
// serialized, and a reader goroutine demultiplexes responses back to
// their callers by ID — so many goroutines sharing one Client keep many
// requests in flight instead of serializing whole round trips. (The
// pre-pipelining client held one lock across send+receive, which was
// safe but allowed exactly one request per round trip; interleaving
// without IDs would have mismatched responses under concurrency.)
type Client struct {
	conn net.Conn
	sem  chan struct{} // in-flight slots

	mu      sync.Mutex
	wbuf    []byte // the request line being written
	pending map[uint64]chan wireResponse
	nextID  uint64
	err     error // first transport error; sticky
	closed  bool

	readerDone chan struct{}
}

// Dial connects to a broker server at addr; timeout bounds the dial.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("broker: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:       conn,
		sem:        make(chan struct{}, clientMaxInflight),
		pending:    make(map[uint64]chan wireResponse),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// readLoop demultiplexes responses to waiting round trips by request ID
// until the connection dies, then fails every still-pending call.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		resp, err := unmarshalWire[wireResponse](line)
		if err != nil {
			c.fail(fmt.Errorf("broker: decode: %w", err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- resp // buffered; never blocks
		}
		// A response to an unknown ID (e.g. an unsolicited protocol
		// error for ID 0) is dropped: the offending call already failed
		// or no call is waiting.
	}
	err := sc.Err()
	if err == nil {
		err = errClientClosed
	} else {
		err = fmt.Errorf("broker: recv: %w", err)
	}
	c.fail(err)
}

// fail records the first transport error and unblocks every pending
// round trip.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan wireResponse)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

func (c *Client) roundTrip(req wireRequest) (wireResponse, error) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()

	ch := make(chan wireResponse, 1)
	c.mu.Lock()
	if c.closed || c.err != nil {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errClientClosed
		}
		return wireResponse{}, err
	}
	c.nextID++
	id := c.nextID
	req.ID = id
	c.pending[id] = ch
	// Writing under the lock serializes concurrent writers onto the
	// socket, one Write per line; the reader never takes this lock while
	// delivering, so pipelined calls overlap freely.
	var err error
	if c.wbuf, err = appendRequest(c.wbuf[:0], &req); err == nil {
		_, err = c.conn.Write(c.wbuf)
	}
	if err != nil {
		delete(c.pending, id)
		c.mu.Unlock()
		c.fail(fmt.Errorf("broker: send: %w", err))
		return wireResponse{}, fmt.Errorf("broker: send: %w", err)
	}
	c.mu.Unlock()

	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errClientClosed
		}
		return wireResponse{}, err
	}
	if resp.Shed {
		return wireResponse{}, &ShedError{
			Tenant:     req.Tenant,
			RetryAfter: time.Duration(resp.RetryAfterMS) * time.Millisecond,
			Reason:     resp.ShedReason,
		}
	}
	return resp, nil
}

// Allocate requests an allocation.
func (c *Client) Allocate(req Request) (Response, error) {
	resp, err := c.roundTrip(wireRequest{Action: "allocate", Request: req})
	if err != nil {
		return Response{}, err
	}
	if resp.Error != "" {
		return Response{}, errors.New(resp.Error)
	}
	if resp.Response == nil {
		return Response{}, errors.New("broker: empty response")
	}
	return *resp.Response, nil
}

// Policies lists the server's registered policies.
func (c *Client) Policies() ([]string, error) {
	resp, err := c.roundTrip(wireRequest{Action: "policies"})
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	return resp.Policies, nil
}

// Health checks the server is alive.
func (c *Client) Health() error {
	resp, err := c.roundTrip(wireRequest{Action: "health"})
	if err != nil {
		return err
	}
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	return nil
}

// Submit queues a job on a managed server and returns its ID.
func (c *Client) Submit(req SubmitRequest) (int, error) {
	resp, err := c.roundTrip(wireRequest{Action: "submit", Submit: &req})
	if err != nil {
		return 0, err
	}
	if resp.Error != "" {
		return 0, errors.New(resp.Error)
	}
	return resp.JobID, nil
}

// JobStatus fetches a submitted job's state.
func (c *Client) JobStatus(id int) (JobInfo, error) {
	resp, err := c.roundTrip(wireRequest{Action: "job", JobID: id})
	if err != nil {
		return JobInfo{}, err
	}
	if resp.Error != "" {
		return JobInfo{}, errors.New(resp.Error)
	}
	if resp.Job == nil {
		return JobInfo{}, errors.New("broker: empty job status")
	}
	return *resp.Job, nil
}

// QueueStats fetches the managed server's queue counters.
func (c *Client) QueueStats() (QueueStats, error) {
	resp, err := c.roundTrip(wireRequest{Action: "queue"})
	if err != nil {
		return QueueStats{}, err
	}
	if resp.Error != "" {
		return QueueStats{}, errors.New(resp.Error)
	}
	if resp.Queue == nil {
		return QueueStats{}, errors.New("broker: empty queue stats")
	}
	return *resp.Queue, nil
}

// Metrics fetches the server's instrumentation snapshot and its
// deterministic text rendering.
func (c *Client) Metrics() (*obs.Snapshot, string, error) {
	resp, err := c.roundTrip(wireRequest{Action: "metrics"})
	if err != nil {
		return nil, "", err
	}
	if resp.Error != "" {
		return nil, "", errors.New(resp.Error)
	}
	if resp.Metrics == nil {
		return nil, "", errors.New("broker: empty metrics")
	}
	return resp.Metrics, resp.MetricsText, nil
}

// Decisions fetches the most recent limit allocation decision records
// (0 = all the server retains), oldest first.
func (c *Client) Decisions(limit int) ([]DecisionRecord, error) {
	resp, err := c.roundTrip(wireRequest{Action: "decisions", Limit: limit})
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	return resp.Decisions, nil
}

// Close closes the client connection and unblocks in-flight calls.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}
