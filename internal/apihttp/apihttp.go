// Package apihttp is the single home of the resvc HTTP surface: the
// versioned route paths and the JSON wire types shared by the server, the
// cluster forwarding client, and the restat scraper. Before this package the
// three talked to each other through duplicated struct literals and bare
// path strings; now a field added to JobResponse, or a route moved, is one
// edit that every side of the wire sees.
//
// The API is versioned under /v1; it has no unversioned routes.
package apihttp

import (
	"strings"

	"rendelim/internal/jobs"
)

// Versioned route paths. These are the canonical surface; new clients use
// only these.
const (
	PathJobs    = "/v1/jobs"
	PathHealthz = "/v1/healthz"
	PathMetrics = "/v1/metrics"
)

// JobPath renders the status URL for a job id under the versioned API.
func JobPath(id string) string { return PathJobs + "/" + id }

// JobID extracts the job id from a request path under the jobs route; ok
// is false for any other path.
func JobID(path string) (id string, ok bool) {
	return strings.CutPrefix(path, PathJobs+"/")
}

// SubmitRequest is the JSON body of POST /v1/jobs for workload-spec jobs.
type SubmitRequest struct {
	Alias  string `json:"alias"`
	Tech   string `json:"tech"`             // base | re | te | memo; default re
	Width  int    `json:"width,omitempty"`  // default 480
	Height int    `json:"height,omitempty"` // default 272
	Frames int    `json:"frames,omitempty"` // default 50
	Seed   int64  `json:"seed,omitempty"`   // default 1
	Tag    string `json:"tag,omitempty"`
}

// JobResponse is the JSON shape of POST /v1/jobs and GET /v1/jobs/{id},
// and of every cluster-forwarded reply.
type JobResponse struct {
	ID       string              `json:"id"`
	Key      string              `json:"key"` // trace-signature/config-hash pair
	State    string              `json:"state"`
	Deduped  bool                `json:"deduped"` // eliminated by signature match
	Error    string              `json:"error,omitempty"`
	Result   *jobs.ResultSummary `json:"result,omitempty"`
	Detail   string              `json:"detail,omitempty"`
	Location string              `json:"location,omitempty"`
	Node     string              `json:"node,omitempty"`  // owning cluster node, when forwarded
	Trace    string              `json:"trace,omitempty"` // trace id of the request that produced this response
}

// HealthResponse is the JSON shape of GET /v1/healthz.
type HealthResponse struct {
	Status     string `json:"status"` // "ok" | "draining"
	Workers    int    `json:"workers"`
	QueueDepth int64  `json:"queue_depth"`
	UptimeSec  int64  `json:"uptime_sec"`
}
