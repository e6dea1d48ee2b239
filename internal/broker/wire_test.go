package broker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/canon"
	"nlarm/internal/loadgen"
	"nlarm/internal/metrics"
	"nlarm/internal/rng"
)

// wireGen draws wire values with the inputs encoding/json treats
// specially mixed in among ordinary ones.
type wireGen struct{ r *rng.Rand }

func (g wireGen) pick(n int) int { return g.r.Intn(n) }

func (g wireGen) float() float64 {
	if g.pick(4) > 0 {
		return float64(g.pick(1000)) / 100
	}
	return [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-7, 1e21,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -0.5}[g.pick(10)]
}

func (g wireGen) str() string {
	if g.pick(3) > 0 {
		return []string{"", "csews7", "net-load-aware", "load-aware", "load", "allocatex", "alloc", "t1", "rate"}[g.pick(9)]
	}
	parts := []string{"a", "Z", "0", ":", ",", "-", " ", "<", ">", "&", `"`, `\`, "\n", "\x7f", "é", "\u2028", "\xff", "]", "}"}
	var b strings.Builder
	for n := g.pick(8); n > 0; n-- {
		b.WriteString(parts[g.pick(len(parts))])
	}
	return b.String()
}

func (g wireGen) time() time.Time {
	switch g.pick(4) {
	case 0:
		return time.Time{}
	case 1:
		return time.Date(2020, 1, 1, 0, 0, 1, g.pick(1e9), time.UTC)
	case 2:
		return time.Date(2020, 3, 4, 5, 6, 7, 0, time.FixedZone("IST", 5*3600+1800))
	}
	return time.Date([]int{-1, 10000, 9999}[g.pick(3)], 1, 1, 0, 0, 0, 0, time.UTC)
}

func (g wireGen) response() *Response {
	p := &Response{
		Recommendation: []Recommendation{RecommendAllocate, RecommendWait, "w\"ait"}[g.pick(3)],
		Policy:         g.str(),
		SnapshotAge:    time.Duration(g.r.Uint64()),
		ClusterLoad:    g.float(),
		FreeProcs:      g.pick(1000) - 10,
		EarliestStart:  g.time(),
		Degraded:       g.pick(4) == 0,
		SnapshotFP:     g.r.Uint64() >> g.pick(65),
		Allocation:     alloc.Allocation{Policy: "ignored", TotalLoad: 1},
	}
	if p.Degraded {
		p.DegradedReason = g.str()
	}
	if n := g.pick(65); n > 0 || g.pick(2) == 0 {
		p.Nodes, p.Procs, p.Hostfile = make([]int, n), make(map[int]int, n), make([]string, n)
		for i := range p.Nodes {
			p.Nodes[i] = g.pick(200) - 5 // repeats, negative and multi-digit keys
			p.Procs[p.Nodes[i]] = g.pick(9)
			p.Hostfile[i] = fmt.Sprintf("%s:%d", g.str(), p.Procs[p.Nodes[i]])
		}
	}
	if g.pick(8) == 0 {
		p.Candidates = []CandidateInfo{{Start: 1, Nodes: []int{1}, TotalLoad: 0.5, Chosen: true}}
	}
	return p
}

// wireResponse draws every kind of answer the server sends.
func (g wireGen) wireResponse() wireResponse {
	w := wireResponse{ID: g.r.Uint64() >> g.pick(65)}
	switch g.pick(6) {
	case 0, 1:
		w.OK, w.Response = true, g.response()
	case 2:
		w.Error = []string{"broker: no monitoring data", `broker: unknown policy "x"`, g.str()}[g.pick(3)]
	case 3:
		w.Error, w.Shed, w.RetryAfterMS, w.ShedReason = "shed", true, int64(g.pick(100))-1, g.str()
	case 4:
		w.OK, w.JobID = true, g.pick(100)-1 // a submit's answer
	default:
		w.OK, w.Health, w.Policies = true, "ok", []string{"random"}
	}
	return w
}

func (g wireGen) wireRequest() wireRequest {
	w := wireRequest{
		ID:     g.r.Uint64() >> g.pick(65),
		Action: []string{"allocate", "allocate", "health", "submit", "decisions", g.str()}[g.pick(6)],
		Request: Request{
			Procs: int(g.r.Uint64()>>g.pick(65)) - g.pick(3), PPN: g.pick(5) - 1,
			Alpha: g.float(), Beta: g.float(), Policy: g.str(), Force: g.pick(2) == 0, Explain: g.pick(5) == 0,
		},
	}
	switch g.pick(10) { // what Client never sends
	case 0:
		w.Submit = &SubmitRequest{Name: g.str(), App: "minimd", Size: 4}
	case 1:
		w.Tenant = g.str()
	case 2:
		w.JobID, w.Limit = g.pick(4)-1, g.pick(4)-1
	}
	return w
}

// encoderLine is json.Encoder's line for v.
func encoderLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// serverLine is what the connection writer buffers for w, with its
// Response passed apart as the batch callbacks pass it when split is set.
func serverLine(t testing.TB, w wireResponse, split bool) (line []byte, err error, fast bool) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cw := newConnWriter(a)
	before := wireFallbacks[endResponseEncode].Load()
	var ans *Response
	if split {
		ans, w.Response = w.Response, nil
	}
	err = cw.encode(&w, ans)
	return cw.buf, err, wireFallbacks[endResponseEncode].Load() == before
}

// checkResponseDecode fails unless unmarshalWire agrees with
// json.Unmarshal on line, and the canonical decoder either agrees too or
// refuses without writing; it reports whether the decoder took line.
func checkResponseDecode(t testing.TB, line []byte) bool {
	t.Helper()
	var fast, want wireResponse
	took := decodeResponse(line, &fast)
	wantErr := json.Unmarshal(line, &want)
	switch {
	case took && (wantErr != nil || !reflect.DeepEqual(fast, want)):
		t.Fatalf("response from %q:\nfast %+v\njson %+v (err %v)", line, fast, want, wantErr)
	case !took && !reflect.DeepEqual(fast, wireResponse{}):
		t.Fatalf("response from %q: refused, but wrote %+v", line, fast)
	}
	if got, err := unmarshalWire[wireResponse](line); fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("response from %q:\nunmarshalWire %+v (err %v)\njson %+v (err %v)", line, got, err, want, wantErr)
	}
	return took
}

// checkRequestDecode is checkResponseDecode for request lines.
func checkRequestDecode(t testing.TB, line []byte) bool {
	t.Helper()
	var fast, want wireRequest
	took := decodeRequest(line, &fast)
	wantErr := json.Unmarshal(line, &want)
	switch {
	case took && (wantErr != nil || !reflect.DeepEqual(fast, want)):
		t.Fatalf("request from %q:\nfast %+v\njson %+v (err %v)", line, fast, want, wantErr)
	case !took && !reflect.DeepEqual(fast, wireRequest{}):
		t.Fatalf("request from %q: refused, but wrote %+v", line, fast)
	}
	if got, err := unmarshalWire[wireRequest](line); fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("request from %q:\nunmarshalWire %+v (err %v)\njson %+v (err %v)", line, got, err, want, wantErr)
	}
	return took
}

// checkResponseEncode fails unless the server buffers json.Encoder's
// bytes for w (or fails exactly when it does), and the canonical
// decoder takes back whatever the canonical writer wrote.
func checkResponseEncode(t testing.TB, w wireResponse, split bool) (fast bool) {
	t.Helper()
	want, wantErr := encoderLine(w)
	got, err, fast := serverLine(t, w, split)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n got %q (err %v)\nwant %q (err %v)", w, got, err, want, wantErr)
	}
	if err == nil {
		line := bytes.TrimSuffix(got, []byte("\n"))
		if took := checkResponseDecode(t, line); fast && !took {
			t.Fatalf("canonical response fell back to json.Unmarshal: %q", line)
		}
	}
	return fast
}

// checkRequestEncode is checkResponseEncode for the client's request
// lines.
func checkRequestEncode(t testing.TB, w wireRequest) (fast bool) {
	t.Helper()
	want, wantErr := encoderLine(w)
	before := wireFallbacks[endRequestEncode].Load()
	got, err := appendRequest([]byte("kept"), &w)
	fast = wireFallbacks[endRequestEncode].Load() == before
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, append([]byte("kept"), want...)) {
		t.Fatalf("%+v:\n got %q (err %v)\nwant %q (err %v)", w, got, err, want, wantErr)
	}
	if err == nil {
		line := bytes.TrimSuffix(got[len("kept"):], []byte("\n"))
		if took := checkRequestDecode(t, line); fast && !took {
			t.Fatalf("canonical request fell back to json.Unmarshal: %q", line)
		}
	}
	return fast
}

// Property: every response the server writes is json.Encoder's bytes
// for it — allocate, wait, error, shed, degraded, explain and control
// answers, 0–64 nodes, hostile strings, NaN/±Inf/huge floats, zero,
// non-UTC and unencodable times — and the client reads each back as
// json.Unmarshal does; likewise for the client's requests and the
// server's decode. At least a fifth of each take the canonical path.
func TestWireCodecMatchesJSON(t *testing.T) {
	for _, p := range []*Response{
		{},
		{Nodes: []int{}, Procs: map[int]int{}, Hostfile: []string{}},
		{Nodes: []int{3, 12}, Procs: map[int]int{3: 1, 12: 2, 100: 0, -1: 4}, Hostfile: []string{"a:1", "b:2"}},
	} {
		if !checkResponseEncode(t, wireResponse{OK: true, Response: p}, false) {
			t.Fatalf("%+v fell back to encoding/json", p)
		}
	}
	g := wireGen{rng.New(34)}
	const trials = 3000
	fastResp, fastReq := 0, 0
	for i := 0; i < trials; i++ {
		if checkResponseEncode(t, g.wireResponse(), i%2 == 0) {
			fastResp++
		}
		if checkRequestEncode(t, g.wireRequest()) {
			fastReq++
		}
	}
	if fastResp < trials/5 || fastReq < trials/5 {
		t.Fatalf("canonical path took %d responses and %d requests of %d", fastResp, fastReq, trials)
	}
}

// canonicalRequest and canonicalResponse are lines as the canonical
// writers emit them; nonCanonical derives the variants encoding/json
// reads with a meaning of its own.
const (
	canonicalRequest  = `{"id":7,"action":"allocate","request":{"procs":16,"ppn":4,"alpha":0.3,"beta":0.7,"policy":"load-aware","force":true}}`
	canonicalResponse = `{"id":3,"ok":true,"response":{"recommendation":"allocate","policy":"net-load-aware","nodes":[12,3],` +
		`"procs":{"12":4,"3":4},"hostfile":["csews12:4","csews3:4"],"snapshot_age":1500000000,` +
		`"cluster_load_per_core":0.25,"free_procs":200,"earliest_start":"0001-01-01T00:00:00Z","degraded":true,"snapshot_fp":42}}`
)

func nonCanonical(line string, edits [][2]string) []string {
	out := []string{line + " ", line + "x", line + "{}", " " + line, strings.Replace(line, `{`, `{ `, 1),
		strings.Replace(line, `:`, `: `, 1), strings.Replace(line, `,`, ` ,`, 1)}
	for _, e := range edits {
		if !strings.Contains(line, e[0]) {
			panic("edit does not apply: " + e[0])
		}
		out = append(out, strings.Replace(line, e[0], e[1], 1))
	}
	return out
}

// Lines that differ from the canonical form — whitespace, reordered,
// duplicate, unknown or case-folded keys, escapes, non-ASCII, null for
// a scalar, out-of-range or non-canonical numbers, trailing bytes — are
// refused by the canonical decoders and read exactly as json.Unmarshal
// reads them (or fail as it fails).
func TestWireDecodeRefusesNonCanonical(t *testing.T) {
	if !checkRequestDecode(t, []byte(canonicalRequest)) || !checkResponseDecode(t, []byte(canonicalResponse)) {
		t.Fatal("canonical lines fell back to json.Unmarshal")
	}
	for _, line := range nonCanonical(canonicalRequest, [][2]string{
		{`"id":7,"action":"allocate",`, `"action":"allocate","id":7,`},
		{`"id":7,`, `"id":7,"tenant":"t1",`},
		{`"force":true}}`, `"force":true},"job_id":3}`},
		{`{"procs":16,"ppn":4`, `{"ppn":4,"procs":16`},
		{`"id":7,`, `"id":7,"id":8,`},
		{`"ppn":4,`, `"ppn":4,"ppn":4,`},
		{`"force":true`, `"force":true,"zzz":1`},
		{`}}`, `},"submitx":null}`},
		{`"id"`, `"ID"`},
		{`"action"`, `"Action"`},
		{`"procs"`, `"PROCS"`},
		{`"load-aware"`, `"load\u002daware"`},
		{`"allocate"`, `"alloc\u0061te"`},
		{`"allocate"`, `"allocaté"`},
		{`"load-aware"`, `"load-aware\u00e9"`},
		{`"ppn":4`, `"ppn":null`},
		{`"id":7`, `"id":null`},
		{`"force":true`, `"force":null`},
		{`"action":"allocate"`, `"action":null`},
		{`"request":{"procs":16,"ppn":4,"alpha":0.3,"beta":0.7,"policy":"load-aware","force":true}`, `"request":null`},
		{`"procs":16`, `"procs":9223372036854775808`},
		{`"id":7`, `"id":18446744073709551616`},
		{`"id":7`, `"id":-1`},
		{`"id":7`, `"id":-0`},
		{`"alpha":0.3`, `"alpha":1e400`},
		{`"procs":16`, `"procs":016`},
		{`"procs":16`, `"procs":16.0`},
		{`"procs":16`, `"procs":+16`},
		{`"alpha":0.3`, `"alpha":.3`},
		{`"force":true`, `"force":1`},
		{`"policy":"load-aware"`, `"policy":7`},
	}) {
		if checkRequestDecode(t, []byte(line)) {
			t.Fatalf("canonical decoder took %q", line)
		}
	}
	for _, line := range nonCanonical(canonicalResponse, [][2]string{
		{`"id":3,"ok":true`, `"ok":true,"id":3`},
		{`"ok":true,`, `"ok":true,"ok":true,`},
		{`"free_procs":200,`, `"free_procs":200,"zzz":1,`},
		{`"ok"`, `"OK"`},
		{`"hostfile"`, `"Hostfile"`},
		{`"csews3:4"`, `"csews\u0033:4"`},
		{`"csews3:4"`, `"csewsé:4"`},
		{`"free_procs":200`, `"free_procs":null`},
		{`"nodes":[12,3]`, `"nodes":[12,null]`},
		{`"earliest_start":"0001-01-01T00:00:00Z"`, `"earliest_start":null`},
		{`"degraded":true`, `"degraded":null`},
		{`"policy":"net-load-aware"`, `"policy":null`},
		{`"snapshot_fp":42`, `"snapshot_fp":18446744073709551616`},
		{`"free_procs":200`, `"free_procs":9223372036854775808`},
		{`"procs":{"12":4`, `"procs":{"012":4`},
		{`"procs":{"12":4`, `"procs":{"+12":4`},
		{`"procs":{"12":4`, `"procs":{"99999999999999999999":4`},
		{`"cluster_load_per_core":0.25`, `"cluster_load_per_core":1e999`},
		{`"earliest_start":"0001-01-01T00:00:00Z"`, `"earliest_start":"0001-01-01 00:00:00Z"`},
		{`"response":{`, `"response":{"candidates":[],`},
		{`,"snapshot_fp":42}`, `,"snapshot_fp":42,"candidates":null}`},
		{`}}`, `},"health":"ok"}`},
		{`}}`, `},"job_id":3}`},
		{canonicalResponse[strings.Index(canonicalResponse, `"response":`) : len(canonicalResponse)-1], `"response":null`},
	}) {
		if checkResponseDecode(t, []byte(line)) {
			t.Fatalf("canonical decoder took %q", line)
		}
	}
	// Map keys in another order, or repeated, mean the same map to
	// encoding/json; the decoder may take them.
	for _, line := range []string{
		strings.Replace(canonicalResponse, `{"12":4,"3":4}`, `{"3":4,"12":4}`, 1),
		strings.Replace(canonicalResponse, `{"12":4,"3":4}`, `{"12":4,"12":5,"3":4}`, 1),
		strings.Replace(canonicalResponse, `{"12":4,"3":4}`, `{}`, 1),
		strings.Replace(canonicalResponse, `[12,3]`, `[]`, 1),
		strings.Replace(canonicalResponse, `[12,3]`, `null`, 1),
	} {
		checkResponseDecode(t, []byte(line))
	}
}

// TestWireFastPath pins that canonical allocate traffic from Client —
// forced, waiting, weighted and named-policy requests, answers and
// errors — never leaves the canonical codec at any of the four ends,
// while a control action's answer does.
func TestWireFastPath(t *testing.T) {
	r := newRig(t, 5, loadgen.Config{})
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
	var before [4]uint64
	for i := range before {
		before[i] = wireFallbacks[i].Load()
	}
	for _, req := range []Request{
		{Procs: 16, PPN: 4, Force: true},
		{Procs: 8, PPN: 2, Alpha: 0.3, Beta: 0.7, Force: true},
		{Procs: 6, Policy: "load-aware", Force: true},
		{Procs: 4, Policy: "random"},
		{Procs: 12},
		{Procs: 0, Force: true}, // an error answer
	} {
		if _, err := c.Allocate(req); err != nil && req.Procs > 0 {
			t.Fatalf("%+v: %v", req, err)
		}
	}
	for i := range before {
		if n := wireFallbacks[i].Load() - before[i]; n != 0 {
			t.Fatalf("end %d handed %d allocate lines to encoding/json", i, n)
		}
	}
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	if wireFallbacks[endResponseEncode].Load() == before[endResponseEncode] {
		t.Fatal("a health answer took the canonical writer")
	}
}

// TestWireCodecAllocs pins the warmed allocation counts of the four ends
// on an 8-node answer: none to write either line or to read the request;
// reading the answer costs the line's string, the Response, the node
// list, the procs map (header and one group) and the hostfile list.
func TestWireCodecAllocs(t *testing.T) {
	req := wireRequest{ID: 9, Action: "allocate", Request: Request{Procs: 16, PPN: 2, Alpha: 0.3, Beta: 0.7, Policy: "load-aware", Force: true}}
	resp := &Response{Recommendation: RecommendAllocate, Policy: "net-load-aware", Procs: map[int]int{}, EarliestStart: time.Time{}}
	for n := 0; n < 8; n++ {
		resp.Nodes = append(resp.Nodes, 3*n+5)
		resp.Procs[3*n+5] = 2
		resp.Hostfile = append(resp.Hostfile, fmt.Sprintf("csews%d:2", 3*n+5))
	}
	var buf []byte
	var e canon.Encoder
	var line []byte
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"request encode", 0, func() { buf, _ = appendRequest(buf[:0], &req) }},
		{"request decode", 0, func() { _, _ = unmarshalWire[wireRequest](buf[:len(buf)-1]) }},
		{"response encode", 0, func() {
			e = canon.Encoder{B: e.B[:0], OK: true}
			appendResponse(&e, &wireResponse{ID: 9, OK: true}, resp)
			line = e.B[:len(e.B)-1]
		}},
		{"response decode", 6, func() { _, _ = unmarshalWire[wireResponse](line) }},
	} {
		c.run()
		if n := testing.AllocsPerRun(100, c.run); n != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, n, c.want)
		}
	}
}

// TestHostfileMatchesSprintf holds the one-string hostfile to the
// fmt.Sprintf("%s:%d") lines it replaced, for 0–64 nodes with hostile
// hostnames and negative, zero and multi-digit process counts, at two
// allocations however many lines.
func TestHostfileMatchesSprintf(t *testing.T) {
	g := wireGen{rng.New(36)}
	for trial := 0; trial < 200; trial++ {
		snap := &metrics.Snapshot{Nodes: map[int]metrics.NodeAttrs{}}
		a := alloc.Allocation{Procs: map[int]int{}}
		for n := g.pick(65); n > 0; n-- {
			id := g.pick(100)
			snap.Nodes[id] = metrics.NodeAttrs{Hostname: g.str()}
			a.Nodes = append(a.Nodes, id)
			a.Procs[id] = g.pick(2000) - 5
		}
		var want []string
		for _, n := range a.Nodes {
			want = append(want, fmt.Sprintf("%s:%d", snap.Nodes[n].Hostname, a.Procs[n]))
		}
		if got := hostfile(snap, a); !reflect.DeepEqual(got, want) {
			t.Fatalf("hostfile %q, want %q", got, want)
		}
		if n := testing.AllocsPerRun(10, func() { hostfile(snap, a) }); len(a.Nodes) > 0 && n != 2 {
			t.Fatalf("%d lines: %v allocations, want 2", len(a.Nodes), n)
		}
	}
}

// FuzzWireCodec feeds arbitrary bytes to both canonical decoders, which
// must agree with json.Unmarshal whenever they take a line, and re-encodes
// whatever json.Unmarshal reads: the canonical writers must write
// json.Encoder's bytes, and their lines must read back as json.Unmarshal
// reads them.
func FuzzWireCodec(f *testing.F) {
	addWireSeeds(f)
	f.Add([]byte(canonicalRequest))
	f.Add([]byte(canonicalResponse))
	g := wireGen{rng.New(35)}
	for i := 0; i < 16; i++ {
		if b, err := encoderLine(g.wireResponse()); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line := bytes.TrimSuffix(data, []byte("\n"))
		checkRequestDecode(t, line)
		checkResponseDecode(t, line)
		var req wireRequest
		if json.Unmarshal(line, &req) == nil {
			checkRequestEncode(t, req)
		}
		var resp wireResponse
		if json.Unmarshal(line, &resp) == nil {
			checkResponseEncode(t, resp, false)
			checkResponseEncode(t, resp, true)
		}
	})
}
