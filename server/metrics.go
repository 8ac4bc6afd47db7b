package server

import (
	"sync"
	"time"
)

// latencyBucketBoundsMS are the histogram bucket upper bounds, exponential
// from sub-millisecond (cache-hit queries) to 10 s (large cold batches); one
// overflow bucket follows.
var latencyBucketBoundsMS = []float64{
	0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// histogram is the mutable counterpart of the wire Histogram.
type histogram struct {
	counts  []uint64
	count   uint64
	totalNS int64
	maxNS   int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBucketBoundsMS)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	i := 0
	for i < len(latencyBucketBoundsMS) && ms > latencyBucketBoundsMS[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.totalNS += d.Nanoseconds()
	if ns := d.Nanoseconds(); ns > h.maxNS {
		h.maxNS = ns
	}
}

func (h *histogram) snapshot() Histogram {
	return Histogram{
		BoundsMS: append([]float64(nil), latencyBucketBoundsMS...),
		Counts:   append([]uint64(nil), h.counts...),
		Count:    h.count,
		TotalNS:  h.totalNS,
		MaxNS:    h.maxNS,
	}
}

// metrics aggregates per-endpoint request accounting and per-phase query
// totals. One mutex suffices: updates are a handful of integer adds per
// request, negligible next to Phase-3 work.
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics

	queries    uint64
	answers    uint64
	statTotals QueryStats
}

type endpointMetrics struct {
	requests uint64
	errors   uint64
	rejected uint64
	latency  *histogram
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics)}
}

func (m *metrics) endpoint(name string) *endpointMetrics {
	em, ok := m.endpoints[name]
	if !ok {
		em = &endpointMetrics{latency: newHistogram()}
		m.endpoints[name] = em
	}
	return em
}

// observe records one completed request on an endpoint.
func (m *metrics) observe(name string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := m.endpoint(name)
	em.requests++
	switch {
	case status == statusTooManyRequests:
		em.rejected++
	case status >= 400:
		em.errors++
	}
	em.latency.observe(d)
}

// addQuery folds one successful query's per-phase stats into the totals.
func (m *metrics) addQuery(st QueryStats, answers int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries++
	m.answers += uint64(answers)
	m.statTotals.Add(st)
}

func (m *metrics) queryTotals() QueryTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.statTotals
	return QueryTotals{
		Queries:         m.queries,
		Answers:         m.answers,
		Retrieved:       uint64(st.Retrieved),
		PrunedFringe:    uint64(st.PrunedFringe),
		PrunedOR:        uint64(st.PrunedOR),
		PrunedBF:        uint64(st.PrunedBF),
		AcceptedBF:      uint64(st.AcceptedBF),
		Integrations:    uint64(st.Integrations),
		NodesRead:       uint64(st.NodesRead),
		NodesReadPacked: uint64(st.NodesReadPacked),
		OverlayScanned:  uint64(st.OverlayScanned),
		F32Rechecks:     uint64(st.F32Rechecks),
		IndexNS:         st.IndexNS,
		FilterNS:        st.FilterNS,
		ProbNS:          st.ProbNS,
	}
}

func (m *metrics) endpointSnapshots() map[string]EndpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]EndpointStats, len(m.endpoints))
	for name, em := range m.endpoints {
		out[name] = EndpointStats{
			Requests: em.requests,
			Errors:   em.errors,
			Rejected: em.rejected,
			Latency:  em.latency.snapshot(),
		}
	}
	return out
}
