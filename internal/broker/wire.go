package broker

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"nlarm/internal/canon"
)

// wireFallbacks counts, per end of the allocate round trip, the lines its
// canonical codec (json.Encoder's bytes, and only those) handed to
// encoding/json: a submit payload, a control action's answer, explain
// candidates, a string that needs escaping, a NaN, a hand-written line.
var wireFallbacks [4]atomic.Uint64

const (
	endRequestEncode = iota
	endRequestDecode
	endResponseEncode
	endResponseDecode
)

// Decoded action and policy names that are one of these literals share
// the literal instead of allocating a copy.
var (
	actionNames = []string{"allocate", "submit", "policies", "health", "metrics", "decisions", "job", "queue"}
	policyNames = []string{"net-load-aware", "load-aware", "random", "sequential"}
)

// appendRequest appends r's line to b. The canonical writer takes what
// Client sends: no tenant, submit payload, job ID or limit.
func appendRequest(b []byte, r *wireRequest) ([]byte, error) {
	e := canon.Encoder{B: b, OK: r.Tenant == "" && r.Submit == nil && r.JobID == 0 && r.Limit == 0}
	e.Raw(`{`)
	if canon.Omit(`"id":`, r.ID, e.Uint) {
		e.Raw(`,`)
	}
	e.Str(`"action":`, r.Action)
	q := &r.Request
	e.Int(`,"request":{"procs":`, int64(q.Procs))
	canon.Omit(`,"ppn":`, int64(q.PPN), e.Int)
	canon.Omit(`,"alpha":`, q.Alpha, e.Float)
	canon.Omit(`,"beta":`, q.Beta, e.Float)
	if q.Policy != "" {
		e.Str(`,"policy":`, q.Policy)
	}
	canon.Omit(`,"force":`, q.Force, e.Bool)
	canon.Omit(`,"explain":`, q.Explain, e.Bool)
	if e.Raw("}}\n"); e.OK {
		return e.B, nil
	}
	wireFallbacks[endRequestEncode].Add(1)
	v := *r // a copy escapes to encoding/json, r does not
	return appendJSON(b, &v)
}

// appendJSON appends json.Encoder's line for v to b.
func appendJSON(b []byte, v any) ([]byte, error) {
	j, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(append(b, j...), '\n'), nil
}

// unmarshalWire is json.Unmarshal into a zero T, through the canonical
// decoder when it takes the line; only the encoding/json path's value
// escapes.
func unmarshalWire[T wireRequest | wireResponse](line []byte) (v T, err error) {
	var fast bool
	switch p := any(&v).(type) {
	case *wireRequest:
		fast = decodeRequest(line, p)
	case *wireResponse:
		fast = decodeResponse(line, p)
	}
	if fast {
		return v, nil
	}
	var j T
	err = json.Unmarshal(line, &j)
	return j, err
}

// decodeRequest decodes a canonical request line into *r and reports
// whether it could; on false *r is untouched.
func decodeRequest(line []byte, r *wireRequest) bool {
	d := canon.Decoder{B: line, OK: true}
	var w wireRequest
	d.Lit(`{`)
	if canon.Opt(&d, `"id":`, &w.ID, d.Uint) {
		d.Lit(`,`)
	}
	w.Action = known(d.Quoted(`"action":`), actionNames)
	q := &w.Request
	q.Procs = d.Int(`,"request":{"procs":`)
	canon.Opt(&d, `,"ppn":`, &q.PPN, d.Int)
	canon.Opt(&d, `,"alpha":`, &q.Alpha, d.Float)
	canon.Opt(&d, `,"beta":`, &q.Beta, d.Float)
	if d.Skip(`,"policy":`) {
		q.Policy = known(d.Quoted(``), policyNames)
	}
	canon.Opt(&d, `,"force":`, &q.Force, d.Bool)
	canon.Opt(&d, `,"explain":`, &q.Explain, d.Bool)
	d.Lit(`}`)
	return commitWire(&d, r, w, endRequestDecode)
}

// commitWire assigns *r = v once the closing brace ends the line, and
// counts the end's fallback otherwise.
func commitWire[T any](d *canon.Decoder, r *T, v T, end int) bool {
	if d.Lit(`}`); !d.Done() {
		wireFallbacks[end].Add(1)
		return false
	}
	*r = v
	return true
}

// known returns the quoted string q without its quotes, as the matching
// literal of names when there is one.
func known(q []byte, names []string) string {
	if len(q) <= 2 {
		return ""
	}
	s := q[1 : len(q)-1]
	for _, name := range names {
		if string(s) == name {
			return name
		}
	}
	return string(s)
}

// appendResponse appends r's line, with p as its Response, to e.B. It
// clears e.OK on any member it does not write: a control action's or a
// submit's answer, or explain candidates.
func appendResponse(e *canon.Encoder, r *wireResponse, p *Response) {
	e.OK = e.OK && r.Policies == nil && r.Health == "" && r.JobID == 0 && r.Job == nil &&
		r.Queue == nil && r.Metrics == nil && r.MetricsText == "" && r.Decisions == nil
	e.Raw(`{`)
	if canon.Omit(`"id":`, r.ID, e.Uint) {
		e.Raw(`,`)
	}
	e.Bool(`"ok":`, r.OK)
	if r.Error != "" {
		e.Str(`,"error":`, r.Error)
	}
	canon.Omit(`,"shed":`, r.Shed, e.Bool)
	canon.Omit(`,"retry_after_ms":`, r.RetryAfterMS, e.Int)
	if r.ShedReason != "" {
		e.Str(`,"shed_reason":`, r.ShedReason)
	}
	if p != nil {
		e.OK = e.OK && len(p.Candidates) == 0
		e.Str(`,"response":{"recommendation":`, string(p.Recommendation))
		e.Str(`,"policy":`, p.Policy)
		canon.AppendList(e, `,"nodes":`, p.Nodes, func(n *int) { e.Int(``, int64(*n)) })
		if e.Raw(`,"procs":`); p.Procs == nil {
			e.Raw(`null`)
		} else {
			// encoding/json orders map keys as strings: "12" before "3".
			var scratch [64]int
			keys := scratch[:0]
			for k := range p.Procs {
				keys = append(keys, k)
			}
			slices.SortFunc(keys, func(a, b int) int {
				var x, y [20]byte
				return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
			})
			e.Raw(`{`)
			for i, k := range keys {
				if i > 0 {
					e.Raw(`,`)
				}
				e.Int(`"`, int64(k))
				e.Int(`":`, int64(p.Procs[k]))
			}
			e.Raw(`}`)
		}
		canon.AppendList(e, `,"hostfile":`, p.Hostfile, func(s *string) { e.Str(``, *s) })
		e.Int(`,"snapshot_age":`, int64(p.SnapshotAge))
		e.Float(`,"cluster_load_per_core":`, p.ClusterLoad)
		e.Int(`,"free_procs":`, int64(p.FreeProcs))
		e.Time(`,"earliest_start":`, p.EarliestStart)
		canon.Omit(`,"degraded":`, p.Degraded, e.Bool)
		if p.DegradedReason != "" {
			e.Str(`,"degraded_reason":`, p.DegradedReason)
		}
		canon.Omit(`,"snapshot_fp":`, p.SnapshotFP, e.Uint)
		e.Raw(`}`)
	}
	e.Raw("}\n")
}

// decodeResponse is decodeRequest for a response line; its strings are
// sliced from one copy of the line.
func decodeResponse(line []byte, r *wireResponse) bool {
	d := canon.Decoder{B: line, OK: true, Src: string(line)}
	var w wireResponse
	d.Lit(`{`)
	if canon.Opt(&d, `"id":`, &w.ID, d.Uint) {
		d.Lit(`,`)
	}
	w.OK = d.Bool(`"ok":`)
	canon.Opt(&d, `,"error":`, &w.Error, d.Str)
	canon.Opt(&d, `,"shed":`, &w.Shed, d.Bool)
	canon.Opt(&d, `,"retry_after_ms":`, &w.RetryAfterMS, d.Int64)
	canon.Opt(&d, `,"shed_reason":`, &w.ShedReason, d.Str)
	if d.Skip(`,"response":`) {
		w.Response = new(Response)
		decodeAnswer(&d, w.Response)
	}
	return commitWire(&d, r, w, endResponseDecode)
}

// decodeAnswer reads a response line's Response member into *p.
func decodeAnswer(d *canon.Decoder, p *Response) {
	p.Recommendation = Recommendation(d.Str(`{"recommendation":`))
	p.Policy = d.Str(`,"policy":`)
	// Integers only: the commas, the key's included, number the items.
	n := bytes.Count(d.B[:bytes.IndexByte(d.B, ']')+1], []byte{','})
	p.Nodes = canon.ReadList(d, `,"nodes":`, n, func(v *int) { *v = d.Int(``) })
	if d.Lit(`,"procs":`) && !d.Skip(`null`) {
		// A repeated key overwrites, as in json.Unmarshal.
		p.Procs = make(map[int]int, len(p.Nodes))
		if d.Lit(`{`); !d.Skip(`}`) {
			for more := d.OK; more; more = d.Skip(`,`) {
				k := d.Int(`"`)
				p.Procs[k] = d.Int(`":`)
			}
			d.Lit(`}`)
		}
	}
	p.Hostfile = canon.ReadList(d, `,"hostfile":`, len(p.Nodes), func(s *string) { *s = d.Str(``) })
	p.SnapshotAge = time.Duration(d.Int64(`,"snapshot_age":`))
	p.ClusterLoad = d.Float(`,"cluster_load_per_core":`)
	p.FreeProcs = d.Int(`,"free_procs":`)
	d.Time(`,"earliest_start":`, &p.EarliestStart)
	canon.Opt(d, `,"degraded":`, &p.Degraded, d.Bool)
	canon.Opt(d, `,"degraded_reason":`, &p.DegradedReason, d.Str)
	canon.Opt(d, `,"snapshot_fp":`, &p.SnapshotFP, d.Uint)
	d.Lit(`}`)
}
