package dist

import "repro/internal/obs"

// metrics is the coordinator's observability surface, on the registry the
// caller shares via WithRegistry (cmd/ptaserve puts it on the same /metrics
// as the serving tier) or a private one.
type metrics struct {
	reg           *obs.Registry
	compressions  *obs.Counter
	shards        *obs.Counter
	retries       *obs.Counter
	curveHits     *obs.Counter
	curveMisses   *obs.Counter
	workerSeconds *obs.HistogramVec
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg: reg,
		compressions: reg.NewCounter("ptadist_compressions_total",
			"Distributed compressions coordinated."),
		shards: reg.NewCounter("ptadist_shard_requests_total",
			"Shard curve fetches issued to workers (the scatter fan-out)."),
		retries: reg.NewCounter("ptadist_retries_total",
			"Shard requests retried after a worker failure, timeout, error status or corrupt response."),
		curveHits: reg.NewCounter("ptadist_curve_hits_total",
			"Shards seeded from the coordinator's sub-request curve cache (no worker scatter for already-gathered rows)."),
		curveMisses: reg.NewCounter("ptadist_curve_misses_total",
			"Shards whose run fingerprint was not in the sub-request curve cache."),
		workerSeconds: reg.NewHistogramVec("ptadist_worker_request_seconds",
			"Latency of one worker HTTP request, by worker.", nil, "worker"),
	}
}
