package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/estimate"
	"repro/internal/fmu"
	"repro/internal/sqldb"
	"repro/internal/timeseries"
)

// ParestResult is the outcome of fmu_parest for one instance.
type ParestResult struct {
	InstanceID string
	// RMSE is the estimation error the paper returns.
	RMSE float64
	// Params are the fitted values written back to the catalogue.
	Params map[string]float64
	// UsedWarmStart reports whether the MI optimization's LO path was taken.
	UsedWarmStart bool
	// CostEvals counts objective evaluations (for the experiments).
	CostEvals int
}

// Parest implements fmu_parest (§6, Algorithms 2 and 3). instanceIDs and
// inputSQLs pair up one-to-one (a single SQL may be supplied for many
// instances). pars lists the parameters to estimate; empty estimates all
// model parameters. It updates each instance (and ModelInstanceValues) with
// the fitted values and returns per-instance estimation errors.
func (s *Session) Parest(instanceIDs, inputSQLs, pars []string) ([]ParestResult, error) {
	return s.ParestContext(context.Background(), instanceIDs, inputSQLs, pars)
}

// ParestContext is Parest honouring ctx: cancelling it aborts the GA /
// local-search iterations within one objective evaluation per worker, the
// enclosing transaction rolls back, and the instances keep their pre-call
// parameters.
// The estimation runs as a Concurrent transaction: it holds no
// database-wide lock and latches only the catalogue table it updates, at the
// end, so a long calibration stalls neither writers of unrelated tables nor
// calibrations of other instances.
func (s *Session) ParestContext(ctx context.Context, instanceIDs, inputSQLs, pars []string) ([]ParestResult, error) {
	var results []ParestResult
	err := s.inTx(ctx, sqldb.Concurrent, func(tx *sqldb.Tx) (err error) {
		results, err = s.parest(ctx, tx, instanceIDs, inputSQLs, pars, s.threshold)
		return err
	})
	return results, err
}

// parest estimates on snapshots of the instances, then writes the fitted
// values to the catalogue in tx.
// threshold is the MI similarity gate for this call.
func (s *Session) parest(ctx context.Context, tx *sqldb.Tx, instanceIDs, inputSQLs, pars []string, threshold float64) ([]ParestResult, error) {
	if len(instanceIDs) == 0 {
		return nil, fmt.Errorf("core: fmu_parest requires at least one instance")
	}
	if len(inputSQLs) == 1 && len(instanceIDs) > 1 {
		// One query shared across all instances.
		shared := inputSQLs[0]
		inputSQLs = make([]string, len(instanceIDs))
		for i := range inputSQLs {
			inputSQLs[i] = shared
		}
	}
	if len(inputSQLs) != len(instanceIDs) {
		return nil, fmt.Errorf("core: fmu_parest got %d instances but %d input queries", len(instanceIDs), len(inputSQLs))
	}

	// Build one estimation job per instance.
	jobs := make([]*estimate.MIJob, len(instanceIDs))
	for i, id := range instanceIDs {
		problem, modelID, err := s.buildProblem(ctx, tx, id, inputSQLs[i], pars)
		if err != nil {
			return nil, fmt.Errorf("core: fmu_parest instance %q: %w", id, err)
		}
		jobs[i] = &estimate.MIJob{Problem: problem, ModelID: modelID}
	}

	var results []*estimate.Result
	var err error
	if s.miOptimization {
		results, err = estimate.EstimateMI(ctx, jobs, threshold, s.estOpts)
	} else {
		// pgFMU-: full SI per instance, no warm starts, on the same fan-out
		// as pgFMU+'s followers, so the two differ only in the warm start.
		results = make([]*estimate.Result, len(jobs))
		err = estimate.ForEach(len(jobs), func(i int) (err error) {
			results[i], err = estimate.EstimateSI(ctx, jobs[i].Problem, s.estOpts)
			return err
		})
	}
	if err != nil {
		return nil, err
	}

	out := make([]ParestResult, len(results))
	for i, r := range results {
		id := instanceIDs[i]
		// Algorithm 2 line 8: write fitted values back to the catalogue.
		for name, v := range r.Params {
			if _, err := tx.QueryContext(ctx,
				`UPDATE modelinstancevalues SET value = $1
				 WHERE instanceid = $2 AND varname = $3`,
				v, id, name); err != nil {
				return nil, err
			}
		}
		// Recalibration changes what the instance computes: drop its cached
		// trajectories (content addressing already keys on the new values;
		// this keeps dead frames from occupying LRU slots).
		s.simcache.invalidateInstance(id)
		out[i] = ParestResult{
			InstanceID:    id,
			RMSE:          r.RMSE,
			Params:        r.Params,
			UsedWarmStart: r.UsedWarmStart,
			CostEvals:     r.CostEvals,
		}
	}
	return out, nil
}

// buildProblem assembles the estimation problem for a snapshot of one
// instance: bind the input query's columns to inputs and measured outputs
// by name (Challenge 2), and read parameter bounds from the catalogue.
func (s *Session) buildProblem(ctx context.Context, q querier, instanceID, inputSQL string, pars []string) (*estimate.Problem, string, error) {
	inst, modelID, err := s.snapshot(ctx, q, instanceID)
	if err != nil {
		return nil, "", err
	}
	unit := inst.Unit()
	in, err := s.loadInput(ctx, q, unit, inputSQL)
	if err != nil {
		return nil, "", err
	}
	if in.data == nil {
		return nil, "", fmt.Errorf("an input_sql with measurements is required")
	}

	measured := make(map[string]*timeseries.Series)
	for _, st := range unit.Model.States {
		if series := in.data.get(st.Name); series != nil {
			measured[st.Name] = series
		}
	}
	for _, o := range unit.Model.Outputs {
		if _, dup := measured[o.Name]; dup {
			continue
		}
		if series := in.data.get(o.Name); series != nil {
			measured[o.Name] = series
		}
	}
	if len(measured) == 0 {
		return nil, "", fmt.Errorf("no measured columns match the model's states or outputs (have %v)", in.data.names())
	}

	// Default parameter list: every model parameter (Algorithm 2 line 3).
	if len(pars) == 0 {
		for _, p := range unit.Model.Parameters {
			pars = append(pars, p.Name)
		}
	}
	specs := make([]estimate.ParamSpec, len(pars))
	for i, name := range pars {
		if inst.KindOf(name) != fmu.VarParameter {
			return nil, "", fmt.Errorf("%q is not a parameter", name)
		}
		lo, hi, err := s.parameterBounds(ctx, q, modelID, name)
		if err != nil {
			return nil, "", err
		}
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return nil, "", fmt.Errorf("parameter %q has no min/max bounds; set them with fmu_set_minimum/fmu_set_maximum", name)
		}
		specs[i] = estimate.ParamSpec{Name: name, Lo: lo, Hi: hi}
	}

	return &estimate.Problem{
		Instance: inst,
		Params:   specs,
		Inputs:   in.series,
		Measured: measured,
	}, modelID, nil
}

// ValidateInstance computes the RMSE of an instance's current parameters
// against a hold-out query — the workflow's model-validation step.
func (s *Session) ValidateInstance(instanceID, inputSQL string, pars []string) (float64, error) {
	return s.ValidateInstanceContext(context.Background(), instanceID, inputSQL, pars)
}

// ValidateInstanceContext is ValidateInstance honouring ctx. Like simulation
// it only reads: each of its queries shares the database lock.
func (s *Session) ValidateInstanceContext(ctx context.Context, instanceID, inputSQL string, pars []string) (float64, error) {
	return s.validate(ctx, s.db, instanceID, inputSQL, pars)
}

func (s *Session) validate(ctx context.Context, q querier, instanceID, inputSQL string, pars []string) (float64, error) {
	problem, _, err := s.buildProblem(ctx, q, instanceID, inputSQL, pars)
	if err != nil {
		return 0, err
	}
	if err := problem.Validate(); err != nil {
		return 0, err
	}
	current := make([]float64, len(problem.Params))
	for i, ps := range problem.Params {
		v, err := problem.Instance.GetReal(ps.Name)
		if err != nil {
			return 0, err
		}
		current[i] = v
	}
	return problem.Cost(current)
}

// splitBraceList parses the paper's '{a, b, c}' textual list arguments.
// Elements are split at top-level commas (parentheses and quotes tracked).
// For lists of SQL queries — which themselves contain commas — elements are
// instead split before each top-level SELECT keyword, matching the paper's
// '{SELECT * FROM m1, SELECT * FROM m2}' example.
func splitBraceList(s string) []string {
	trimmed := strings.TrimSpace(s)
	if strings.HasPrefix(trimmed, "{") && strings.HasSuffix(trimmed, "}") {
		trimmed = trimmed[1 : len(trimmed)-1]
	}
	if strings.TrimSpace(trimmed) == "" {
		return nil
	}
	lower := strings.ToLower(trimmed)
	if strings.Contains(lower, "select") {
		return splitSQLList(trimmed)
	}
	parts := splitTopLevel(trimmed, ',')
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// splitSQLList splits a brace list of SQL queries at ", select" boundaries.
func splitSQLList(s string) []string {
	lower := strings.ToLower(s)
	var cuts []int
	depth := 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote:
			if c == '\'' {
				inQuote = false
			}
		case c == '\'':
			inQuote = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			// Cut here if the next token is SELECT.
			rest := strings.TrimSpace(lower[i+1:])
			if strings.HasPrefix(rest, "select") {
				cuts = append(cuts, i)
			}
		case c == ';' && depth == 0:
			cuts = append(cuts, i)
		}
	}
	var out []string
	start := 0
	for _, cut := range cuts {
		if part := strings.TrimSpace(s[start:cut]); part != "" {
			out = append(out, part)
		}
		start = cut + 1
	}
	if part := strings.TrimSpace(s[start:]); part != "" {
		out = append(out, part)
	}
	return out
}

// splitTopLevel splits s at sep occurrences outside parentheses and quotes.
func splitTopLevel(s string, sep byte) []string {
	var parts []string
	depth := 0
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inQuote:
			if c == '\'' {
				inQuote = false
			}
		case c == '\'':
			inQuote = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	return parts
}
