package core

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Match is one probability-annotated answer.
type Match struct {
	ID          int64
	Probability float64
}

// SearchProbs runs the plan serially with eval like ExecuteEval but returns
// qualification probabilities alongside the ids, sorted by descending
// probability (ties by ascending id).
//
// Candidates Phase 2 accepts without integration are guaranteed to qualify;
// since the caller asked for their probabilities anyway, they are evaluated
// too, so the Integrations statistic exceeds ExecuteEval's by AcceptedBF.
func (p *Plan) SearchProbs(ctx context.Context, eval Evaluator) ([]Match, *PhaseStats, error) {
	s := getPhase2()
	defer s.release()
	s.acceptRows = true
	snap, err := p.filterPhases(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	st := s.st

	t2 := time.Now()
	s.accepted = append(s.accepted, s.needEval...)
	all := s.accepted
	st.Integrations = len(all)

	matches := make([]Match, 0, len(all))
	done := ctx.Done()
	for _, r := range all {
		if stopped(done) {
			return nil, nil, ctx.Err()
		}
		id, o := snap.row(int(r))
		pr, err := eval.Qualification(p.dist, o, p.delta)
		if err != nil {
			return nil, nil, fmt.Errorf("core: qualification of object %d: %w", id, err)
		}
		if pr >= p.theta {
			matches = append(matches, Match{ID: id, Probability: pr})
		}
	}
	st.PhaseDurations[2] = time.Since(t2)
	st.Answers = len(matches)

	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Probability != matches[j].Probability {
			return matches[i].Probability > matches[j].Probability
		}
		return matches[i].ID < matches[j].ID
	})
	return matches, &st, nil
}
