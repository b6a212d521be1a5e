package serve

// The wire surface of the pinning-advisor daemon: request/response JSON
// shapes, the request→cache-key derivation, and the figure→response
// rendering (including the model-fit recommendation).
//
// Two invariants matter here:
//
//  1. The cache key is derived from request fields alone — no registry
//     lookup, no workload resolution, no validation. The warm path must be
//     hash + one sharded read; everything that can fail or allocate happens
//     only inside the cold path's singleflight leader.
//  2. Response bytes are source-independent: whether a request was served
//     warm, coalesced onto an in-flight computation, or simulated fresh,
//     the body is byte-identical (the provenance travels in the
//     X-Pinserv-Source header). Cached bytes can therefore be written
//     verbatim forever.

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
)

// RunRequest is the POST /run body: a named registry scenario (optionally
// with replacement cells) or a full inline scenario spec, plus run and
// recommendation parameters. Unknown fields are rejected.
type RunRequest struct {
	// Name selects a registered scenario. Exactly one of Name and Scenario
	// must be set.
	Name string `json:"name,omitempty"`
	// Scenario is a full inline scenario spec (the pinsim -scenario JSON
	// shape).
	Scenario *experiments.Scenario `json:"scenario,omitempty"`
	// Cells, when non-empty, replaces the scenario's cell list — the
	// "registry entry at my instance sizes" shorthand.
	Cells []experiments.ScenarioCell `json:"cells,omitempty"`
	// Reps overrides the repetition count (0 keeps the server default).
	Reps int `json:"reps,omitempty"`
	// Seed overrides the base seed (nil keeps the server default).
	Seed *uint64 `json:"seed,omitempty"`
	// Recommend, when set, fits the analytic model on the produced figure
	// and returns a ranked pinning recommendation.
	Recommend *RecommendSpec `json:"recommend,omitempty"`
}

// RecommendSpec narrows the model-driven recommendation.
type RecommendSpec struct {
	// Cores is the instance size to advise for (0 = the largest cell).
	Cores int `json:"cores,omitempty"`
	// AllowPinning permits pinned modes (nil = true; the daemon exists to
	// advise on pinning).
	AllowPinning *bool `json:"allow_pinning,omitempty"`
	// MinIsolation excludes platforms below this isolation level
	// (model.IsolationLevel numeric).
	MinIsolation int `json:"min_isolation,omitempty"`
	// MaxOverhead rejects candidates whose predicted ratio exceeds it.
	MaxOverhead float64 `json:"max_overhead,omitempty"`
}

// validate enforces the request's structural rules — everything checkable
// without touching the registry, so bad requests 400 before the cache key
// is even derived.
func (r RunRequest) validate() error {
	if (r.Name == "") == (r.Scenario == nil) {
		return fmt.Errorf("serve: exactly one of name and scenario must be set")
	}
	if r.Reps < 0 {
		return fmt.Errorf("serve: reps must be non-negative")
	}
	return nil
}

// key derives the response-cache identity from the request and the
// server's run parameters. Named requests hash in O(name length); inline
// scenarios hash their canonical fingerprint; replacement cells are folded
// in via their canonical JSON. Resolution and validation are deliberately
// absent — an unknown name keys (and fails) on the cold path.
func (r RunRequest) key(quick bool, defaultReps int, defaultSeed uint64) uint64 {
	reps, seed := r.Reps, defaultSeed
	if reps == 0 {
		reps = defaultReps
	}
	if r.Seed != nil {
		seed = *r.Seed
	}
	var b strings.Builder
	fmt.Fprintf(&b, "run|quick=%v|reps=%d|seed=%d|name=%q", quick, reps, seed, r.Name)
	if r.Scenario != nil {
		b.WriteString("|sc=" + r.Scenario.Fingerprint())
	}
	for _, c := range r.Cells {
		cj, _ := json.Marshal(c)
		b.WriteString("|cell=")
		b.Write(cj)
	}
	if rec := r.Recommend; rec != nil {
		fmt.Fprintf(&b, "|rec=%d/%v/%d/%g", rec.Cores, rec.allowPinning(), rec.MinIsolation, rec.MaxOverhead)
	}
	return cache.HashKey(b.String())
}

func (r *RecommendSpec) allowPinning() bool {
	return r == nil || r.AllowPinning == nil || *r.AllowPinning
}

// RunResponse is the POST /run reply: the figure's aggregates plus the
// optional recommendation. The body never encodes how it was served.
type RunResponse struct {
	Name        string       `json:"name"`
	Fingerprint string       `json:"fingerprint"`
	Quick       bool         `json:"quick"`
	Reps        int          `json:"reps"`
	Seed        uint64       `json:"seed"`
	Metric      string       `json:"metric"`
	XTitle      string       `json:"x_title"`
	XLabels     []string     `json:"x_labels"`
	Series      []SeriesJSON `json:"series"`
	// Recommendation is present when the request asked for one and the
	// figure supported a model fit; RecommendationNote carries the reason
	// when it did not (e.g. a stack-only scenario with no platform series).
	Recommendation     *RecommendationJSON `json:"recommendation,omitempty"`
	RecommendationNote string              `json:"recommendation_note,omitempty"`
}

// SeriesJSON is one legend entry of the reply.
type SeriesJSON struct {
	Label string     `json:"label"`
	Cells []CellJSON `json:"cells"`
}

// CellJSON is one (series, x) aggregate of the reply.
type CellJSON struct {
	X          string  `json:"x"`
	Mean       float64 `json:"mean"`
	Std        float64 `json:"std"`
	Ratio      float64 `json:"ratio,omitempty"`
	OutOfRange bool    `json:"out_of_range,omitempty"`
}

// RecommendationJSON is the model-fit advice: the best deployment first,
// with the full ranking for context.
type RecommendationJSON struct {
	Class     string       `json:"class"`
	Cores     int          `json:"cores"`
	CHR       float64      `json:"chr"`
	Platform  string       `json:"platform"`
	Mode      string       `json:"mode"`
	Predicted float64      `json:"predicted_overhead"`
	Ranked    []ChoiceJSON `json:"ranked"`
}

// ChoiceJSON is one ranked candidate.
type ChoiceJSON struct {
	Platform  string  `json:"platform"`
	Mode      string  `json:"mode"`
	Predicted float64 `json:"predicted_overhead"`
}

// buildResponse renders the figure (and, when asked, the per-request model
// fit) into the deterministic response body. Recommendation failures are
// reported in-band as a note: the figure itself is still useful, and a
// scenario whose shape cannot feed the model (no platform series, sweep
// x-axes) is a property of the request, not an error of the server.
func (s *Server) buildResponse(req RunRequest, sc experiments.Scenario, cfg experiments.Config, fig experiments.Figure) ([]byte, error) {
	resp := RunResponse{
		Name:        sc.Name,
		Fingerprint: sc.Fingerprint(),
		Quick:       cfg.Quick,
		Reps:        req.Reps,
		Seed:        cfg.Seed,
		Metric:      fig.Metric,
		XTitle:      fig.XTitle,
		XLabels:     fig.XLabels,
	}
	if resp.Reps == 0 {
		resp.Reps = cfg.Reps
	}
	for _, sr := range fig.Series {
		sj := SeriesJSON{Label: sr.Label}
		for ci, cell := range sr.Cells {
			x := ""
			if ci < len(fig.XLabels) {
				x = fig.XLabels[ci]
			}
			sj.Cells = append(sj.Cells, CellJSON{
				X: x, Mean: cell.Summary.Mean, Std: cell.Summary.Stddev,
				Ratio: cell.Ratio, OutOfRange: cell.OutOfRange,
			})
		}
		resp.Series = append(resp.Series, sj)
	}
	if req.Recommend != nil {
		rec, note := s.recommend(*req.Recommend, sc, fig)
		resp.Recommendation, resp.RecommendationNote = rec, note
	}
	return json.Marshal(resp)
}

// recommend fits the model on the figure's own samples and ranks the
// deployments for the requested size. Every failure mode returns a note
// instead of an error — see buildResponse.
func (s *Server) recommend(spec RecommendSpec, sc experiments.Scenario, fig experiments.Figure) (*RecommendationJSON, string) {
	class, err := experiments.FigureClass(sc)
	if err != nil {
		return nil, err.Error()
	}
	samples, err := experiments.FigureSamples(fig, class, s.host.NumCPUs())
	if err != nil {
		return nil, err.Error()
	}
	m, err := model.Fit(samples)
	if err != nil {
		return nil, err.Error()
	}
	cores := spec.Cores
	if cores == 0 {
		for _, c := range sc.Cells {
			if c.Cores > cores {
				cores = c.Cores
			}
		}
	}
	chr := core.CHR(cores, s.host)
	ranked, err := m.Recommend(class, chr, model.Constraints{
		MinIsolation: model.IsolationLevel(spec.MinIsolation),
		AllowPinning: spec.allowPinning(),
		MaxOverhead:  spec.MaxOverhead,
	})
	if err != nil {
		return nil, err.Error()
	}
	rec := &RecommendationJSON{
		Class: class.String(), Cores: cores, CHR: chr,
		Platform: ranked[0].Key.Platform.String(), Mode: ranked[0].Key.Mode.String(),
		Predicted: ranked[0].Predicted,
	}
	for _, c := range ranked {
		rec.Ranked = append(rec.Ranked, ChoiceJSON{
			Platform: c.Key.Platform.String(), Mode: c.Key.Mode.String(), Predicted: c.Predicted,
		})
	}
	return rec, ""
}
