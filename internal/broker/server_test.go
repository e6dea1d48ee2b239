package broker

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"nlarm/internal/loadgen"
)

// TestServerMetricsAction exercises the "metrics" wire action end to end:
// the snapshot must carry the decision counters for traffic already
// served, and the text rendering must be non-empty and deterministic.
func TestServerMetricsAction(t *testing.T) {
	r := newRig(t, 21, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Allocate(Request{Procs: 8, PPN: 4}); err != nil {
		t.Fatal(err)
	}
	snap, text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["broker.allocate.total"] != 1 || snap.Counters["broker.allocate.ok"] != 1 {
		t.Fatalf("allocate counters not reflected: %v", snap.Counters)
	}
	if !strings.Contains(text, "counter broker.allocate.total 1") {
		t.Fatalf("rendered text missing allocate counter:\n%s", text)
	}
	if text != snap.Render() {
		t.Fatal("metrics_text does not match rendering the returned snapshot")
	}
}

// TestServerDecisionsAction verifies the "decisions" action returns the
// recorded decision log, honors limit, and includes the cost breakdown.
func TestServerDecisionsAction(t *testing.T) {
	r := newRig(t, 22, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Allocate(Request{Procs: 8, PPN: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(Request{Procs: 4, PPN: 4, Policy: "random"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(Request{Policy: "no-such-policy", Procs: 1}); err == nil {
		t.Fatal("expected error for unknown policy")
	}

	recs, err := c.Decisions(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("want 3 decisions, got %d", len(recs))
	}
	first, last := recs[0], recs[2]
	if first.Seq != 1 || first.Policy != "net-load-aware" || first.Recommendation != RecommendAllocate {
		t.Fatalf("first decision %+v", first)
	}
	if len(first.Nodes) == 0 || len(first.Contributions) != len(first.Nodes) {
		t.Fatalf("first decision lacks contributions: %+v", first)
	}
	if first.Candidates == 0 {
		t.Fatal("model policy decision should report candidate count")
	}
	var sumCL float64
	for _, contrib := range first.Contributions {
		sumCL += contrib.CL
	}
	if diff := sumCL - first.ComputeCost; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("compute cost %v != sum of contributions %v", first.ComputeCost, sumCL)
	}
	if last.Error == "" || last.Seq != 3 {
		t.Fatalf("error decision not recorded: %+v", last)
	}

	limited, err := c.Decisions(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 || limited[0].Seq != 3 {
		t.Fatalf("limit=1 should return newest record, got %+v", limited)
	}
}

// TestServerOversizedLine sends a line beyond MaxLineBytes and expects
// one error response followed by a clean close — not a hang, not a panic.
func TestServerOversizedLine(t *testing.T) {
	r := newRig(t, 23, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{MaxLineBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	huge := append(bytes.Repeat([]byte("x"), 8192), '\n')
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatal("expected an error response before close")
	}
	var resp wireResponse
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Error, "exceeds") {
		t.Fatalf("unexpected response %+v", resp)
	}
	// The server must then close the connection.
	if sc.Scan() {
		t.Fatalf("expected close after error, got %q", sc.Text())
	}
}

// TestServerReadDeadline verifies a silent client is disconnected once
// ReadTimeout expires instead of pinning the serving goroutine forever.
func TestServerReadDeadline(t *testing.T) {
	r := newRig(t, 24, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{ReadTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// Send nothing. The server should drop us after ~100ms.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection close, got data")
	}
}

// TestServerPartialLineThenSilence covers the stalled-mid-request case:
// bytes arrive but no newline ever does. The deadline must still fire;
// the truncated request gets at most one error response, then the
// connection closes.
func TestServerPartialLineThenSilence(t *testing.T) {
	r := newRig(t, 25, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{ReadTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write([]byte(`{"action":"hea`)); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if sc.Scan() {
		// The deadline flushed the partial line to the handler: that must
		// have produced a bad-request error, and nothing after it.
		var resp wireResponse
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("response not JSON: %v", err)
		}
		if resp.OK || resp.Error == "" {
			t.Fatalf("truncated request must be an error, got %+v", resp)
		}
		if sc.Scan() {
			t.Fatalf("expected close after error, got %q", sc.Text())
		}
	}
	// Either way the connection is now closed, not hung.
	if err := sc.Err(); err != nil {
		t.Fatalf("expected clean close, got %v", err)
	}
}

// TestServerAnswersHalfClosedClient is the `echo … | nc host port`
// client: it writes its requests, shuts down its write side and only
// then reads. The server sees a clean EOF while the allocate is still
// in the batcher; it must answer everything it accepted before closing.
func TestServerAnswersHalfClosedClient(t *testing.T) {
	_, srv := startServer(t, 23, ServerOptions{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	lines := `{"id":1,"action":"allocate","request":{"procs":8,"ppn":4}}` + "\n" +
		`{"id":2,"action":"health"}` + "\n"
	if _, err := conn.Write([]byte(lines)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}

	answered := map[uint64]wireResponse{}
	sc := bufio.NewScanner(conn)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var resp wireResponse
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Bytes(), err)
		}
		answered[resp.ID] = resp
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading answers: %v", err)
	}
	if r := answered[1]; !r.OK || r.Response == nil || procsOf(*r.Response) != 8 {
		t.Fatalf("allocate sent before the half-close was not answered: %+v (got %d answers)", r, len(answered))
	}
	if r := answered[2]; !r.OK || r.Health != "ok" {
		t.Fatalf("health sent before the half-close was not answered: %+v", r)
	}
}
