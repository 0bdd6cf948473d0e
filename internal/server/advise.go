package server

import (
	"time"

	"groupkey/internal/adaptive"
	"groupkey/internal/clock"
	"groupkey/internal/keytree"
)

// This file implements the Section 3.4 feedback loop on the live daemon:
// the server records every member's join time, feeds completed lifetimes
// into the churn estimator when members leave, and can be asked at any
// point which key-tree organization the analytic model currently favors.

// observeJoin records a member's admission time. Called under s.mu.
func (s *Server) observeJoin(id keytree.MemberID) {
	if s.joinedAt == nil {
		s.joinedAt = make(map[keytree.MemberID]time.Time)
	}
	s.joinedAt[id] = s.now()
}

// observeLeave folds a departing member's lifetime into the estimator.
// Called under s.mu.
func (s *Server) observeLeave(id keytree.MemberID) {
	joined, ok := s.joinedAt[id]
	if !ok {
		return
	}
	delete(s.joinedAt, id)
	if s.estimator == nil {
		s.estimator, _ = adaptive.NewEstimator(8192)
	}
	s.estimator.Observe(s.now().Sub(joined).Seconds())
}

// now returns the server clock (overridable in tests and under the
// deterministic simulator).
func (s *Server) now() time.Time {
	return clock.Or(s.clock).Now()
}

// since measures elapsed time on the server clock.
func (s *Server) since(t time.Time) time.Duration {
	return clock.Or(s.clock).Since(t)
}

// SetClock injects the server's time source (nil restores the wall
// clock). Must be called before Serve or StartPeriodic.
func (s *Server) SetClock(c clock.Clock) { s.clock = c }

// ObservedDepartures returns how many member lifetimes the server has
// collected for churn estimation.
func (s *Server) ObservedDepartures() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.estimator == nil {
		return 0
	}
	return s.estimator.Count()
}

// SetSPeriod forwards a new S-period K to a scheme that supports runtime
// re-partitioning (TwoPartition), under the server lock. Reports whether
// the scheme accepted it. Migration timing affects payloads, so durable
// deployments must only change K through configuration that replays with
// the log.
func (s *Server) SetSPeriod(k int) bool {
	if k < 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	type sPeriodSetter interface{ SetSPeriod(int) }
	if setter, ok := s.scheme.(sPeriodSetter); ok {
		setter.SetSPeriod(k)
		return true
	}
	return false
}

// Recommend runs the Section 3.4 adaptive policy against the lifetimes
// observed so far: fit the two-class churn mixture, evaluate the analytic
// model, and report the cheapest organization for the current group size.
// It fails with adaptive.ErrTooFewSamples until enough members have left.
func (s *Server) Recommend(tp time.Duration) (adaptive.Recommendation, error) {
	s.mu.Lock()
	est := s.estimator
	size := float64(s.scheme.Size())
	s.mu.Unlock()
	if est == nil {
		return adaptive.Recommendation{}, adaptive.ErrTooFewSamples
	}
	fit, err := est.Estimate()
	if err != nil {
		return adaptive.Recommendation{}, err
	}
	advisor := adaptive.DefaultAdvisor()
	advisor.Tp = tp.Seconds()
	return advisor.Recommend(size, fit)
}
