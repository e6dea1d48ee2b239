package broker

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"nlarm/internal/loadgen"
)

// sentIDs parses the fuzz input the way the server will — newline-split,
// JSON per line — and collects the request IDs of the well-formed lines.
// Responses may only echo these IDs (or 0 for malformed/ID-less lines).
func sentIDs(data []byte) map[uint64]bool {
	ids := map[uint64]bool{0: true}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var req wireRequest
		if err := json.Unmarshal(line, &req); err == nil {
			ids[req.ID] = true
		}
	}
	return ids
}

// fuzzExchange writes one fuzz input over a fresh connection and checks
// the wire contract on everything that comes back: every line is JSON,
// every response is ok or carries an error, every echoed request ID was
// actually sent (pipelining must never invent or cross-wire IDs), and
// the server always terminates the conversation.
func fuzzExchange(t *testing.T, addr string, data []byte) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Skip("dial failed (fd pressure)")
	}
	defer conn.Close()
	// Hard deadline on everything: a hang is a failure, not a wait.
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write(data); err != nil {
		return // server already rejected us (e.g. mid-oversized-line close)
	}
	// Half-close so the server sees EOF after our input and can drain.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	valid := sentIDs(data)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var resp wireResponse
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("server emitted non-JSON line %q: %v", line, err)
		}
		if !resp.OK && resp.Error == "" {
			t.Fatalf("response neither ok nor error: %q", line)
		}
		if !valid[resp.ID] {
			t.Fatalf("response echoes id %d that was never sent: %q", resp.ID, line)
		}
	}
	// Any scanner error other than a clean close means the *client*
	// deadline fired — i.e. the server hung instead of closing.
	if err := sc.Err(); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("server neither answered nor closed within deadline (input %q)", data)
		}
		// Connection resets are acceptable teardown for hostile input.
	}
}

// addWireSeeds seeds a wire-protocol fuzz target with the interesting
// shapes: plain actions, ID/tenant framing, pipelined lines, malformed
// JSON, truncation, binary garbage, oversized lines.
func addWireSeeds(f *testing.F) {
	f.Add([]byte(`{"action":"health"}` + "\n"))
	f.Add([]byte(`{"action":"policies"}` + "\n"))
	f.Add([]byte(`{"action":"metrics"}` + "\n"))
	f.Add([]byte(`{"action":"decisions","limit":3}` + "\n"))
	f.Add([]byte(`{"action":"allocate","request":{"procs":4,"force":true}}` + "\n"))
	f.Add([]byte(`{"action":"submit"}` + "\n"))
	f.Add([]byte(`{"action":"job","job_id":-1}` + "\n"))
	f.Add([]byte(`{"action":"nope"}` + "\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte(`{"action":"health"`)) // truncated, no newline
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0x00, 0xff, 0xfe, '\n'})
	f.Add([]byte(`{"action":1234}` + "\n"))
	f.Add([]byte(`{"action":"allocate","request":{"procs":-5}}` + "\n"))
	f.Add(append(bytes.Repeat([]byte("x"), 128*1024), '\n')) // beyond MaxLineBytes
	f.Add([]byte(`{"action":"health"}` + "\n" + `{"action":"policies"}` + "\n"))
	// Request-ID framing: explicit IDs, duplicate IDs, huge IDs, tenant
	// labels, and a pipelined burst whose responses may return reordered.
	f.Add([]byte(`{"id":7,"tenant":"t1","action":"allocate","request":{"procs":4,"force":true}}` + "\n"))
	f.Add([]byte(`{"id":1,"action":"health"}` + "\n" + `{"id":2,"action":"health"}` + "\n" + `{"id":3,"action":"allocate","request":{"procs":2}}` + "\n"))
	f.Add([]byte(`{"id":5,"action":"health"}` + "\n" + `{"id":5,"action":"health"}` + "\n")) // duplicate IDs are the client's problem, not a server crash
	f.Add([]byte(`{"id":18446744073709551615,"action":"health"}` + "\n"))
	f.Add([]byte(`{"id":-1,"action":"health"}` + "\n")) // invalid for uint64: malformed line
	f.Add([]byte(`{"id":9,"tenant":"` + string(bytes.Repeat([]byte("t"), 512)) + `","action":"allocate","request":{"procs":1}}` + "\n"))
	// A process count far past the cluster: the round-robin remainder must
	// not cost one step per process, or this line holds the dispatcher.
	f.Add([]byte(`{"action":"allocate","request":{"procs":1000000000000,"force":true}}` + "\n"))
}

// FuzzWireProtocol throws arbitrary bytes at the newline-JSON server:
// malformed JSON, unknown actions, oversized lines, truncated requests,
// binary garbage. The contract under fuzzing is that every complete line
// gets exactly one JSON response (ok or error) echoing a sent request
// ID, the connection always terminates (no goroutine pinned by a hostile
// client), and the server never panics — a panic anywhere crashes the
// whole test process, which the fuzzer reports as a failing input.
func FuzzWireProtocol(f *testing.F) {
	r := newRig(f, 31, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{
		ReadTimeout:  500 * time.Millisecond,
		MaxLineBytes: 64 * 1024,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	addr := srv.Addr()

	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzExchange(t, addr, data)
	})
}

// FuzzWireProtocolBatched runs the same wire contract against a server
// with tight admission limits (FuzzWireProtocol runs the defaults):
// allocate/submit lines pass admission and the batcher, responses flush
// per batch and may come back out of order — but each must still echo a
// sent ID, and sheds must read as errors.
func FuzzWireProtocolBatched(f *testing.F) {
	r := newRig(f, 32, loadgen.Config{})
	srv, err := NewServerOpts(r.b, nil, "127.0.0.1:0", ServerOptions{
		ReadTimeout:  500 * time.Millisecond,
		MaxLineBytes: 64 * 1024,
		MaxInflight:  8, // small, so fuzzed bursts exercise the inflight shed
		Batching: &BatcherOptions{
			MaxBatch:  16,
			Admission: AdmissionConfig{TenantRate: 1000, TenantBurst: 4, QueueDepth: 8},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	addr := srv.Addr()

	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzExchange(t, addr, data)
	})
}
