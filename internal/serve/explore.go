package serve

// POST /v1/explore: design-space exploration as a service. One request
// fans a single source across a knob grid on the worker's compile pool and
// answers with the Pareto front — the traffic-amplification workload the
// admission queue, design cache, and cluster sharding were built to
// absorb. The response is byte-deterministic for a given (source, grid,
// options): points sort by canonical knob key, floats render in canonical
// form, and the whole body is cacheable in the design cache.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/flow"
)

// DefaultMaxGridPoints bounds the grid of one explore request when Config
// leaves it 0. A sweep multiplies one request into this many engine runs,
// so the cap is deliberately far below flow.MaxGridPoints.
const DefaultMaxGridPoints = 64

// GridAxis is the wire form of one knob axis: a JSON array of candidate
// values (strings, numbers, or booleans), or a single string carrying a
// comma-separated list with integer ranges, e.g. "1..4" or "daa,leftedge".
type GridAxis []string

// UnmarshalJSON accepts ["daa","leftedge"], [1,2,4], [true,false], "1..4",
// and "daa,leftedge".
func (a *GridAxis) UnmarshalJSON(b []byte) error {
	var list []any
	if err := json.Unmarshal(b, &list); err == nil {
		vals := make([]string, 0, len(list))
		for _, v := range list {
			s, err := scalarToWire(v)
			if err != nil {
				return err
			}
			vals = append(vals, s)
		}
		*a = vals
		return nil
	}
	var one any
	if err := json.Unmarshal(b, &one); err != nil {
		return err
	}
	s, err := scalarToWire(one)
	if err != nil {
		return err
	}
	*a = strings.Split(s, ",")
	return nil
}

// scalarToWire lowers a JSON scalar onto the knob wire form.
func scalarToWire(v any) (string, error) {
	switch x := v.(type) {
	case string:
		return x, nil
	case bool:
		return strconv.FormatBool(x), nil
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), nil
	default:
		return "", fmt.Errorf("grid values must be strings, numbers, or booleans, got %T", v)
	}
}

// ExploreRequest is the POST /v1/explore body. Options set the base
// option point the grid perturbs; Grid names the swept knobs.
type ExploreRequest struct {
	// Name is the input's diagnostic name (default "input.isps").
	Name string `json:"name,omitempty"`
	// Source is the ISPS description to explore.
	Source string `json:"source"`
	// Grid maps knob names to candidate values (see flow.KnobSpace).
	Grid map[string]GridAxis `json:"grid"`
	// Options is the base option set; swept knobs override it per point.
	// options.provenance attaches per-point journal summaries.
	Options RequestOptions `json:"options,omitempty"`
	// DeadlineMS bounds the whole sweep (capped by the server's max).
	DeadlineMS int `json:"deadlineMs,omitempty"`
	// NoCache bypasses the explore response cache.
	NoCache bool `json:"noCache,omitempty"`
}

// flowInput mirrors SynthesizeRequest.flowInput.
func (req ExploreRequest) flowInput() flow.Input {
	return flowInput(req.Name, req.Source)
}

// flowGrid lowers the wire grid onto the validated flow.Grid.
func (req ExploreRequest) flowGrid() (flow.Grid, error) {
	axes := make(map[string][]string, len(req.Grid))
	//daalint:allow detmap map-to-map copy is order-insensitive; ParseGrid sorts the axes
	for name, vals := range req.Grid {
		axes[name] = vals
	}
	return flow.ParseGrid(axes)
}

// ShardKey routes explore by design content hash alone — every sweep of a
// design lands on one worker regardless of grid or base options, so that
// worker's front-end artifact cache absorbs the whole amplification and
// repeat sweeps hit its explore cache.
func (req ExploreRequest) ShardKey() string {
	in := req.flowInput()
	return fmt.Sprintf("%x|explore", in.ContentHash())
}

// ExplorePoint is one grid point on the wire.
type ExplorePoint struct {
	// Knobs is the swept assignment; KnobKey its canonical encoding (the
	// sort key of Points).
	Knobs   map[string]string `json:"knobs"`
	KnobKey string            `json:"knobKey"`
	// OptionsKey is the full canonical option key of the point — its
	// design-cache identity for follow-up /v1/synthesize or /v1/explain.
	OptionsKey string `json:"optionsKey,omitempty"`
	// Cost/Area/Steps are the objectives (present when the point
	// evaluated): datapath gate equivalents, datapath component count,
	// control states.
	Cost  float64 `json:"cost,omitempty"`
	Area  int     `json:"area,omitempty"`
	Steps int     `json:"steps,omitempty"`
	// Frontier marks Pareto-optimal points; dominated points are retained
	// with frontier false.
	Frontier bool `json:"frontier"`
	// Failed marks points whose compilation failed; Error carries the
	// message and Diagnostics any positioned findings.
	Failed      bool         `json:"failed,omitempty"`
	Error       string       `json:"error,omitempty"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	// Provenance summarizes the point's journal (options.provenance).
	Provenance *PointProvenance `json:"provenance,omitempty"`
}

// PointProvenance is the per-point journal summary.
type PointProvenance struct {
	Components int `json:"components"`
	Firings    int `json:"firings"`
	Effects    int `json:"effects"`
}

// ExploreResponse is the POST /v1/explore success body: the full evaluated
// grid, sorted by canonical knob key, with the Pareto frontier flagged.
type ExploreResponse struct {
	Name       string         `json:"name"`
	BaseKey    string         `json:"baseOptionsKey"`
	GridPoints int            `json:"gridPoints"`
	Evaluated  int            `json:"evaluated"`
	Failed     int            `json:"failed"`
	Frontier   int            `json:"frontier"`
	Points     []ExplorePoint `json:"points"`
}

// NewExploreResponse lowers a flow.Front onto the wire. daa -explore uses
// it locally so local and -remote output are byte-identical.
func NewExploreResponse(front *flow.Front) *ExploreResponse {
	resp := &ExploreResponse{
		Name:       front.Input.Name,
		BaseKey:    front.BaseKey,
		GridPoints: len(front.Points),
		Evaluated:  front.Evaluated,
		Failed:     front.Failed,
		Frontier:   front.Frontier,
		Points:     make([]ExplorePoint, len(front.Points)),
	}
	for i, p := range front.Points {
		wp := ExplorePoint{
			Knobs:      p.Knobs,
			KnobKey:    p.KnobKey,
			OptionsKey: p.OptionsKey,
			Frontier:   p.Frontier,
			Failed:     p.Failed,
			Error:      p.Err,
		}
		if !p.Failed {
			wp.Cost, wp.Area, wp.Steps = p.Metrics.Cost, p.Metrics.Area, p.Metrics.Steps
		}
		for _, d := range p.Diags {
			wp.Diagnostics = append(wp.Diagnostics, Diagnostic{
				File: d.Pos.File, Line: d.Pos.Line, Col: d.Pos.Col,
				Stage: d.Stage, Msg: d.Msg, SrcLine: d.SrcLine,
			})
		}
		if p.Provenance != nil {
			wp.Provenance = &PointProvenance{
				Components: p.Provenance.Components,
				Firings:    p.Provenance.Firings,
				Effects:    p.Provenance.Effects,
			}
		}
		resp.Points[i] = wp
	}
	return resp
}

// RenderFront writes the human table of an exploration — the output of
// daa -explore, shared by the local and -remote paths for byte parity.
func RenderFront(w io.Writer, resp *ExploreResponse) {
	fmt.Fprintf(w, "design-space exploration: %s\n", resp.Name)
	fmt.Fprintf(w, "%d points: %d evaluated, %d failed, %d on the Pareto frontier (*)\n\n",
		resp.GridPoints, resp.Evaluated, resp.Failed, resp.Frontier)
	width := len("point")
	for _, p := range resp.Points {
		if len(p.KnobKey) > width {
			width = len(p.KnobKey)
		}
	}
	fmt.Fprintf(w, "  %-*s  %10s  %6s  %6s\n", width, "point", "cost", "area", "steps")
	for _, p := range resp.Points {
		mark := " "
		if p.Frontier {
			mark = "*"
		}
		if p.Failed {
			fmt.Fprintf(w, "%s %-*s  failed: %s\n", mark, width, p.KnobKey, p.Error)
			continue
		}
		fmt.Fprintf(w, "%s %-*s  %10.1f  %6d  %6d\n", mark, width, p.KnobKey, p.Cost, p.Area, p.Steps)
	}
}

// exploreCacheKey is the design-cache identity of an explore request: the
// content hash, the base option key, and the canonical grid encoding.
func exploreCacheKey(in flow.Input, base flow.Options, grid flow.Grid) string {
	var b strings.Builder
	fmt.Fprintf(&b, "explore|%x|%s|", in.ContentHash(), base.Key())
	for i, ax := range grid {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%s", ax.Name, strings.Join(ax.Values, ","))
	}
	return b.String()
}

// handleExplore runs one design-space sweep. The request is admitted as a
// single unit and holds one worker token; the sweep's internal fan-out
// runs on flow's bounded compile pool, so explore amplification cannot
// starve the admission queue. Over-large grids answer 413.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	s.met.exploreReq.Add(1)
	id := requestID(r.Context())
	if s.draining.Load() {
		s.writeError(w, r, http.StatusServiceUnavailable, &ErrorResponse{
			Error: "server is draining", Kind: KindShutdown, RequestID: id,
		})
		return
	}
	var req ExploreRequest
	if errResp := s.decodeBody(w, r, &req); errResp != nil {
		s.writeError(w, r, errResp.status, errResp.body)
		return
	}
	if strings.TrimSpace(req.Source) == "" {
		s.writeError(w, r, http.StatusBadRequest, &ErrorResponse{
			Error: "empty source", Kind: KindRequest, RequestID: id,
		})
		return
	}
	grid, err := req.flowGrid()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, &ErrorResponse{
			Error: err.Error(), Kind: KindRequest, RequestID: id,
		})
		return
	}
	if n := grid.Points(); n > s.cfg.MaxGridPoints {
		s.writeError(w, r, http.StatusRequestEntityTooLarge, &ErrorResponse{
			Error: fmt.Sprintf("grid expands to %d points, limit %d", n, s.cfg.MaxGridPoints),
			Kind:  KindRequest, RequestID: id,
		})
		return
	}
	s.met.explorePoints.Add(int64(grid.Points()))
	base, err := req.Options.flowOptions()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, &ErrorResponse{
			Error: err.Error(), Kind: KindRequest, RequestID: id,
		})
		return
	}
	in := req.flowInput()

	useCache := !req.NoCache && s.cache.Cap() > 0 && base.Cacheable()
	key := ""
	if useCache {
		key = exploreCacheKey(in, base, grid)
		if body, ok := s.cache.Get(key); ok {
			s.writeBody(w, body, "hit")
			return
		}
	}

	if !s.admitN(1) {
		s.writeError(w, r, http.StatusTooManyRequests, &ErrorResponse{
			Error: "admission queue full, retry later", Kind: KindOverload, RequestID: id,
		})
		return
	}
	defer s.leave()
	if err := s.acquire(r.Context()); err != nil {
		out := s.ctxOutcome(err, id)
		s.writeError(w, r, out.status, out.err)
		return
	}
	defer s.release()

	ctx, cancel := s.withDeadline(r.Context(), req.DeadlineMS)
	defer cancel()

	front, err := flow.Explore(ctx, in, base, grid)
	if err != nil {
		out := s.errorOutcome(err, id)
		s.writeError(w, r, out.status, out.err)
		return
	}
	body, err := json.MarshalIndent(NewExploreResponse(front), "", "  ")
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, &ErrorResponse{
			Error: err.Error(), Kind: KindInternal, RequestID: id,
		})
		return
	}
	body = append(body, '\n')
	if useCache {
		s.cache.Put(key, body)
	}
	s.writeBody(w, body, "miss")
}

// writeBody writes a pre-rendered JSON body with the cache-state header.
func (s *Server) writeBody(w http.ResponseWriter, body []byte, cacheState string) {
	w.Header().Set("X-DAAD-Cache", cacheState)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
