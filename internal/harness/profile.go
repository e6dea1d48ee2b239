package harness

import (
	"fmt"
	"time"

	"nlarm/internal/alloc"
	"nlarm/internal/apps"
	"nlarm/internal/mpisim"
	"nlarm/internal/rng"
)

// ProfileReport is the outcome of a profiling run: the measured
// computation/communication split and the α/β weights derived from it
// (§5: "One may set these weights by profiling an application and decide
// the relative weights on the basis of the computation and communication
// times"; §6 lists better profiling tools as future work).
type ProfileReport struct {
	// Shape is the (shortened) shape that was profiled.
	Shape string
	// Result is the profiling run itself.
	Result mpisim.Result
	// CommFraction is the measured fraction of time in communication.
	CommFraction float64
	// Alpha and Beta are the suggested Equation-4 weights.
	Alpha, Beta float64
}

// profileIterFraction shortens the profiled app to a fraction of its full
// iteration count — profiling must be cheap relative to the real run.
const profileIterFraction = 0.2

// ProfileShape runs a shortened copy of shape on a neutral (α=β=0.5)
// allocation and derives α/β from the measured communication fraction.
// The profiling run itself executes on the live session and therefore
// reflects current cluster conditions, like the authors' profiling runs.
func (s *Session) ProfileShape(shape *mpisim.Shape, ppn int, r *rng.Rand) (*ProfileReport, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	short := *shape
	short.Name = shape.Name + "(profile)"
	short.Iterations = int(float64(shape.Iterations) * profileIterFraction)
	if short.Iterations < 5 {
		short.Iterations = 5
	}
	_, a, err := s.allocate(alloc.NetLoadAware{}, alloc.Request{
		Procs: shape.Ranks, PPN: ppn, Alpha: 0.5, Beta: 0.5,
	}, r)
	if err != nil {
		return nil, fmt.Errorf("harness: profile: %w", err)
	}
	res, err := s.RunJob(&short, a)
	if err != nil {
		return nil, fmt.Errorf("harness: profile: %w", err)
	}
	frac := res.CommFraction()
	alpha, beta := apps.SuggestAlphaBeta(frac)
	return &ProfileReport{
		Shape:        shape.Name,
		Result:       res,
		CommFraction: frac,
		Alpha:        alpha,
		Beta:         beta,
	}, nil
}

// ProfileAndRun is the end-to-end workflow the paper sketches: profile
// the application once, then allocate with the derived weights and run
// the full job.
func (s *Session) ProfileAndRun(shape *mpisim.Shape, ppn int, r *rng.Rand) (*ProfileReport, mpisim.Result, error) {
	report, err := s.ProfileShape(shape, ppn, r)
	if err != nil {
		return nil, mpisim.Result{}, err
	}
	s.Advance(30 * time.Second)
	_, a, err := s.allocate(alloc.NetLoadAware{}, alloc.Request{
		Procs: shape.Ranks, PPN: ppn, Alpha: report.Alpha, Beta: report.Beta,
	}, r)
	if err != nil {
		return nil, mpisim.Result{}, err
	}
	res, err := s.RunJob(shape, a)
	if err != nil {
		return nil, mpisim.Result{}, err
	}
	return report, res, nil
}
