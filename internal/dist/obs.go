package dist

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/trace"
)

// SlowQueries returns the broker's kept call traces, worst (longest)
// first: every SearchMany call over WithSlowQueryThreshold plus the
// WithTraceSampling sample, bounded to the most recent few dozen.
func (b *Broker) SlowQueries() []trace.QueryTrace {
	return b.tracer.SlowQueries()
}

// OpsAddr returns the bound address of the WithOpsServer HTTP endpoint
// ("" without the option) — useful with port 0.
func (b *Broker) OpsAddr() string {
	return b.ops.Addr()
}

// brokerOps adapts a Broker to the obs.Source its ops endpoint serves:
// every BrokerMetrics counter as a Prometheus metric (per-group hedge
// state and per-replica health as labeled gauges), the slow-call log,
// and a cluster-health document.
type brokerOps struct{ b *Broker }

func (o brokerOps) OpsMetrics() []obs.Metric {
	m := o.b.MetricsSnapshot()
	ms := []obs.Metric{
		{Name: "repro_broker_calls_total", Help: "SearchMany invocations admitted",
			Kind: obs.Counter, Value: float64(m.Calls)},
		{Name: "repro_broker_queries_total", Help: "requests across admitted batches",
			Kind: obs.Counter, Value: float64(m.Queries)},
		{Name: "repro_broker_shed_total", Help: "invocations rejected by admission control",
			Kind: obs.Counter, Value: float64(m.Shed)},
		{Name: "repro_broker_hedged_total", Help: "hedge requests issued",
			Kind: obs.Counter, Value: float64(m.Hedged)},
		{Name: "repro_broker_retried_total", Help: "failover re-issues",
			Kind: obs.Counter, Value: float64(m.Retried)},
		{Name: "repro_broker_degraded_groups_total", Help: "whole-group outages answered around",
			Kind: obs.Counter, Value: float64(m.DegradedGroups)},
		{Name: "repro_broker_inflight", Help: "currently admitted calls",
			Kind: obs.Gauge, Value: float64(m.Inflight)},
		{Name: "repro_broker_call_seconds", Help: "SearchMany end-to-end latency",
			Kind: obs.Summary, Hist: m.Latency},
	}
	for gi := range m.Groups {
		g := &m.Groups[gi]
		part := []obs.Label{{Key: "partition", Value: strconv.Itoa(gi)}}
		ms = append(ms, obs.Metric{
			Name: "repro_broker_hedge_budget_seconds", Help: "hedge budget",
			Kind: obs.Gauge, Labels: part, Value: obs.Seconds(g.HedgeBudget),
		})
		for _, rs := range g.Replicas {
			lbl := []obs.Label{
				{Key: "partition", Value: strconv.Itoa(gi)},
				{Key: "replica", Value: rs.Addr},
			}
			up := 0.0
			if rs.Healthy {
				up = 1
			}
			ms = append(ms,
				obs.Metric{Name: "repro_broker_replica_up", Help: "replica health (1 = healthy)",
					Kind: obs.Gauge, Labels: lbl, Value: up},
				obs.Metric{Name: "repro_broker_replica_ewma_seconds", Help: "replica latency estimate",
					Kind: obs.Gauge, Labels: lbl, Value: obs.Seconds(rs.EWMA)},
			)
		}
	}
	return ms
}

func (o brokerOps) OpsSlowQueries() []trace.QueryTrace { return o.b.SlowQueries() }

func (o brokerOps) OpsHealth() any {
	m := o.b.MetricsSnapshot()
	healthy := true
	type replicaHealth struct {
		Addr    string `json:"addr"`
		Healthy bool   `json:"healthy"`
		Fails   int    `json:"fails"`
	}
	groups := make([][]replicaHealth, len(m.Groups))
	for gi := range m.Groups {
		live := 0
		for _, rs := range m.Groups[gi].Replicas {
			if rs.Healthy {
				live++
			}
			groups[gi] = append(groups[gi], replicaHealth{Addr: rs.Addr, Healthy: rs.Healthy, Fails: rs.Fails})
		}
		if live == 0 {
			healthy = false
		}
	}
	return struct {
		Healthy bool              `json:"healthy"`
		Calls   int64             `json:"calls"`
		Hedged  int64             `json:"hedged"`
		Retried int64             `json:"retried"`
		Groups  [][]replicaHealth `json:"groups"`
		// Reconcile is the live reconciler's progress document
		// (SetHealthExtra), present while a topology change is bound to
		// this broker.
		Reconcile any `json:"reconcile,omitempty"`
	}{Healthy: healthy, Calls: m.Calls, Hedged: m.Hedged, Retried: m.Retried, Groups: groups,
		Reconcile: o.b.healthExtraValue()}
}
