package core

import (
	"time"

	"gaussrange/internal/gauss"
	"gaussrange/internal/quadform"
	"gaussrange/internal/vecmat"
)

// ExactEvaluator adapts the Ruben-series evaluator of internal/quadform to
// the Evaluator interface. It computes qualification probabilities to
// ~12 digits in microseconds, versus the 3-digit/0.05 s Monte Carlo profile
// of the paper's setup — the "further development" the paper's conclusion
// calls for in medium dimensionality.
type ExactEvaluator struct {
	inner *quadform.Exact
}

// NewExactEvaluator returns a fresh exact evaluator.
func NewExactEvaluator() *ExactEvaluator {
	return &ExactEvaluator{inner: quadform.NewExact()}
}

// Qualification returns Pr(‖x − o‖ ≤ delta) for x ~ dist, exactly.
func (e *ExactEvaluator) Qualification(dist *gauss.Dist, o vecmat.Vector, delta float64) (float64, error) {
	return e.inner.Qualification(dist, o, delta)
}

// DecideQualifies implements DecisionEvaluator with the series' certified
// early exit (quadform.Exact.Decide): most candidates settle in a fraction of
// the terms the 12-digit value needs.
func (e *ExactEvaluator) DecideQualifies(dist *gauss.Dist, o vecmat.Vector, delta, theta float64) (bool, error) {
	qual, _, err := e.inner.Decide(dist, o, delta, theta)
	return qual, err
}

// BruteForce answers the query by evaluating the qualification probability
// of every indexed point — no index search, no filtering. It is the
// reference implementation the strategy combinations are validated against,
// and the "no filtering" baseline of the benchmark harness. Single-goroutine
// per engine (see Engine): concurrent callers build an engine each.
func (e *Engine) BruteForce(q Query) (*Result, error) {
	if err := q.Validate(e.idx.Dim()); err != nil {
		return nil, err
	}
	snap := e.idx.Current()
	var st PhaseStats
	st.Epoch = snap.Epoch()
	t0 := time.Now()
	ids := make([]int64, 0)
	var iterErr error
	snap.Range(func(id int64, o vecmat.Vector) bool {
		p, err := e.eval.Qualification(q.Dist, o, q.Delta)
		if err != nil {
			iterErr = err
			return false
		}
		if p >= q.Theta {
			ids = append(ids, id)
		}
		return true
	})
	if iterErr != nil {
		return nil, iterErr
	}
	st.Retrieved = snap.Len()
	st.Integrations = snap.Len()
	st.Answers = len(ids)
	st.PhaseDurations[2] = time.Since(t0)
	return &Result{IDs: ids, Stats: st}, nil
}
