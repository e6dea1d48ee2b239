// Package trace holds job traces, the versioned decision logs of
// simulated scheduling runs: one header line identifying the format,
// the seed, and the scenario that produced the log, then one canonical
// JSON line per job in completion order. The encoding is deliberately
// line-oriented and field-stable so a recorded run re-serializes
// bit-for-bit: equality of two runs reduces to equality of their
// digests, and a replay can diff decision-by-decision.
package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"

	"nlarm/internal/canon"
)

// JobTraceKind is the format discriminator in the header line.
const JobTraceKind = "nlarm-jobtrace"

// JobTraceVersion is the current job-trace schema version. Version 2
// added the per-job cost fields (cl_cost/nl_cost) written by
// policy-fidelity simulation runs. Readers accept every version from
// JobTraceMinVersion through JobTraceVersion and reject anything newer
// or older instead of guessing.
const JobTraceVersion = 2

// JobTraceMinVersion is the oldest schema version readers still accept.
// Version 1 traces contain exactly the version-2 fields minus the
// optional cost columns, so they parse (and re-serialize) unchanged.
const JobTraceMinVersion = 1

// JobTraceHeader is the first line of a job trace.
type JobTraceHeader struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	// Seed is the scenario seed; replaying Scenario with it must
	// reproduce the records byte-for-byte.
	Seed uint64 `json:"seed"`
	// Scenario is the opaque JSON of the scenario configuration that
	// produced the trace, embedded so a reader can re-run it without any
	// side channel.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// JobRecord is one job's scheduling decision and outcome. Times are
// seconds since scenario start, so records are timezone- and
// epoch-independent.
type JobRecord struct {
	ID       int    `json:"id"`
	Cohort   string `json:"cohort,omitempty"`
	Client   int    `json:"client,omitempty"`
	Procs    int    `json:"procs"`
	PPN      int    `json:"ppn,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// SubmitSec/StartSec/EndSec are offsets from scenario start. A
	// rejected job (can never fit) has StartSec and EndSec -1.
	SubmitSec float64 `json:"submit_sec"`
	StartSec  float64 `json:"start_sec"`
	EndSec    float64 `json:"end_sec"`
	// WalltimeSec is the user estimate the scheduler planned with.
	WalltimeSec float64 `json:"walltime_sec,omitempty"`
	// Nodes is how many nodes the job occupied.
	Nodes int `json:"nodes"`
	// Backfilled marks an out-of-order start.
	Backfilled bool `json:"backfilled,omitempty"`
	// CLCost/NLCost are the allocator's compute cost (Σ CL over the
	// selected nodes) and network cost (Σ NL over selected pairs) of the
	// placement, recorded by policy-fidelity runs (schema version ≥ 2;
	// absent on capacity-only runs and rejections). Tuner fitness
	// functions consume them.
	CLCost float64 `json:"cl_cost,omitempty"`
	NLCost float64 `json:"nl_cost,omitempty"`
}

// JobTraceWriter streams a job trace and maintains a running SHA-256
// over the exact bytes written, so callers get a determinism digest for
// free (and can discard the bytes themselves by writing to io.Discard).
type JobTraceWriter struct {
	w       *bufio.Writer
	hash    hash.Hash
	records int
	err     error
	// line is the record being written, reused from record to record.
	line []byte
}

// NewJobTraceWriter writes the header line for hdr (Kind is filled in;
// a zero Version becomes the current JobTraceVersion, and callers whose
// records use no post-v1 fields may pin an older accepted version so
// the emitted bytes stay identical to what that version's writer
// produced) and returns the streaming writer.
func NewJobTraceWriter(w io.Writer, hdr JobTraceHeader) (*JobTraceWriter, error) {
	hdr.Kind = JobTraceKind
	if hdr.Version == 0 {
		hdr.Version = JobTraceVersion
	}
	if hdr.Version < JobTraceMinVersion || hdr.Version > JobTraceVersion {
		return nil, fmt.Errorf("trace: job-trace version %d outside writable range %d..%d",
			hdr.Version, JobTraceMinVersion, JobTraceVersion)
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("trace: marshal job-trace header: %w", err)
	}
	tw := &JobTraceWriter{w: bufio.NewWriterSize(w, 1<<16), hash: sha256.New()}
	tw.writeLine(line)
	return tw, tw.err
}

// writeLine appends line plus newline to both the output and the digest.
func (tw *JobTraceWriter) writeLine(line []byte) {
	if tw.err != nil {
		return
	}
	tw.hash.Write(line)
	tw.hash.Write([]byte{'\n'})
	if _, err := tw.w.Write(line); err != nil {
		tw.err = err
		return
	}
	tw.err = tw.w.WriteByte('\n')
}

// Write appends one record line, the bytes json.Marshal writes for *rec
// and a newline. It does not keep rec.
func (tw *JobTraceWriter) Write(rec *JobRecord) error {
	if tw.err != nil {
		return tw.err
	}
	line, ok := appendJobRecord(tw.line[:0], rec)
	if !ok {
		// A cohort that needs escaping or a NaN or infinite float:
		// encoding/json writes the one, and refuses the other as it always
		// has.
		b, err := json.Marshal(*rec)
		if err != nil {
			return fmt.Errorf("trace: marshal job record: %w", err)
		}
		line = append(append(line[:0], b...), '\n')
	}
	tw.line = line
	tw.hash.Write(line)
	if _, err := tw.w.Write(line); err != nil {
		tw.err = err
		return tw.err
	}
	tw.records++
	return nil
}

// appendJobRecord appends r's line to b without reflection: its members
// in struct order, omitempty as encoding/json omits them, then "}\n".
// ok is false when canon cannot reproduce encoding/json's bytes.
func appendJobRecord(b []byte, r *JobRecord) ([]byte, bool) {
	e := canon.Encoder{B: b, OK: true}
	e.Int(`{"id":`, int64(r.ID))
	if r.Cohort != "" {
		e.Str(`,"cohort":`, r.Cohort)
	}
	canon.Omit(`,"client":`, int64(r.Client), e.Int)
	e.Int(`,"procs":`, int64(r.Procs))
	canon.Omit(`,"ppn":`, int64(r.PPN), e.Int)
	canon.Omit(`,"priority":`, int64(r.Priority), e.Int)
	e.Float(`,"submit_sec":`, r.SubmitSec)
	e.Float(`,"start_sec":`, r.StartSec)
	e.Float(`,"end_sec":`, r.EndSec)
	canon.Omit(`,"walltime_sec":`, r.WalltimeSec, e.Float)
	e.Int(`,"nodes":`, int64(r.Nodes))
	canon.Omit(`,"backfilled":`, r.Backfilled, e.Bool)
	canon.Omit(`,"cl_cost":`, r.CLCost, e.Float)
	canon.Omit(`,"nl_cost":`, r.NLCost, e.Float)
	e.Raw("}\n")
	return e.B, e.OK
}

// Flush drains the buffered output. Call it once after the last record.
func (tw *JobTraceWriter) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	tw.err = tw.w.Flush()
	return tw.err
}

// Records returns how many record lines were written.
func (tw *JobTraceWriter) Records() int { return tw.records }

// Digest returns the hex SHA-256 of every byte written so far (header
// included). Two same-seed runs must produce equal digests.
func (tw *JobTraceWriter) Digest() string {
	return hex.EncodeToString(tw.hash.Sum(nil))
}

// ReadJobTrace parses a job trace, returning its header, records, and
// the digest of the bytes read (computable without re-serializing).
func ReadJobTrace(r io.Reader) (JobTraceHeader, []JobRecord, string, error) {
	h := sha256.New()
	sc := bufio.NewScanner(io.TeeReader(r, h))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var hdr JobTraceHeader
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, "", fmt.Errorf("trace: read job-trace header: %w", err)
		}
		return hdr, nil, "", fmt.Errorf("trace: empty job trace")
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return hdr, nil, "", fmt.Errorf("trace: parse job-trace header: %w", err)
	}
	if hdr.Kind != JobTraceKind {
		return hdr, nil, "", fmt.Errorf("trace: not a job trace (kind %q)", hdr.Kind)
	}
	if hdr.Version < JobTraceMinVersion || hdr.Version > JobTraceVersion {
		return hdr, nil, "", fmt.Errorf("trace: job-trace version %d, this build reads versions %d..%d",
			hdr.Version, JobTraceMinVersion, JobTraceVersion)
	}
	var recs []JobRecord
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec JobRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return hdr, recs, "", fmt.Errorf("trace: parse job record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return hdr, recs, "", fmt.Errorf("trace: read job trace: %w", err)
	}
	return hdr, recs, hex.EncodeToString(h.Sum(nil)), nil
}

// DiffJobRecords compares two record sequences decision-by-decision and
// returns human-readable descriptions of up to maxDiffs mismatches
// (empty means identical).
func DiffJobRecords(a, b []JobRecord, maxDiffs int) []string {
	if maxDiffs <= 0 {
		maxDiffs = 10
	}
	var diffs []string
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n && len(diffs) < maxDiffs; i++ {
		if a[i] != b[i] {
			diffs = append(diffs, fmt.Sprintf("record %d: %+v != %+v", i, a[i], b[i]))
		}
	}
	if len(a) != len(b) && len(diffs) < maxDiffs {
		diffs = append(diffs, fmt.Sprintf("record count: %d != %d", len(a), len(b)))
	}
	return diffs
}
