package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mpc"
	"repro/internal/sqldb"
	"repro/internal/variant"
)

// ControlRequest configures fmu_control — the §9 future-work feature:
// in-DBMS FMU-based dynamic optimization of a control input.
type ControlRequest struct {
	// InstanceID names the (calibrated) model instance.
	InstanceID string
	// Control names the model input to optimize; empty picks the model's
	// single input.
	Control string
	// Target names the state/output to steer; empty picks the first state.
	Target string
	// Setpoint is the desired target value.
	Setpoint float64
	// TimeFrom/TimeTo bound the horizon; Steps is the number of
	// piecewise-constant control segments.
	TimeFrom, TimeTo float64
	Steps            int
	// InputSQL optionally supplies the exogenous input series.
	InputSQL string
	// EffortWeight penalizes control magnitude.
	EffortWeight float64
}

// Control optimizes a control trajectory over the horizon and returns one
// row per segment: (time, control, value) plus the predicted target
// trajectory rows (time, 'predicted:<target>', value). It only reads.
func (s *Session) Control(req ControlRequest) (*sqldb.ResultSet, error) {
	return s.control(context.Background(), s.db, req)
}

func (s *Session) control(ctx context.Context, q querier, req ControlRequest) (*sqldb.ResultSet, error) {
	inst, modelID, err := s.snapshot(ctx, q, req.InstanceID)
	if err != nil {
		return nil, err
	}
	unit := inst.Unit()

	control := req.Control
	if control == "" {
		if len(unit.Model.Inputs) != 1 {
			return nil, fmt.Errorf("core: fmu_control needs an explicit control name for models with %d inputs", len(unit.Model.Inputs))
		}
		control = unit.Model.Inputs[0].Name
	}
	target := req.Target
	if target == "" {
		if len(unit.Model.States) == 0 {
			return nil, fmt.Errorf("core: model has no states to control")
		}
		target = unit.Model.States[0].Name
	}

	// Control bounds from the catalogue (fmu_set_minimum/maximum or the
	// Modelica declaration).
	lo, hi, err := s.parameterBounds(ctx, q, modelID, control)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return nil, fmt.Errorf("core: control %q needs min/max bounds; set them with fmu_set_minimum/fmu_set_maximum or in the model", control)
	}

	// The exogenous inputs: every bound series except the control's own.
	in, err := s.loadInput(ctx, q, unit, req.InputSQL)
	if err != nil {
		return nil, err
	}
	delete(in.series, control)

	problem := &mpc.Problem{
		Instance:     inst,
		Control:      control,
		Lo:           lo,
		Hi:           hi,
		Target:       target,
		Setpoint:     req.Setpoint,
		T0:           req.TimeFrom,
		T1:           req.TimeTo,
		Steps:        req.Steps,
		EffortWeight: req.EffortWeight,
		OtherInputs:  in.series,
	}
	plan, err := mpc.Solve(problem)
	if err != nil {
		return nil, err
	}

	out := &sqldb.ResultSet{Columns: []sqldb.Column{
		{Name: "time", Type: "float"},
		{Name: "varName", Type: "text"},
		{Name: "value", Type: "float"},
	}}
	for i, t := range plan.Times {
		out.Rows = append(out.Rows, sqldb.Row{
			variant.NewFloat(t), variant.NewText(control), variant.NewFloat(plan.Controls[i]),
		})
	}
	predictedName := "predicted:" + target
	for i, t := range plan.Predicted.Times {
		out.Rows = append(out.Rows, sqldb.Row{
			variant.NewFloat(t), variant.NewText(predictedName), variant.NewFloat(plan.Predicted.Values[i]),
		})
	}
	return out, nil
}

// registerControlUDF wires fmu_control into the SQL engine; called from
// registerUDFs.
func (s *Session) registerControlUDF() {
	s.db.RegisterTable("fmu_control", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (sqldb.RowStream, error) {
		if len(args) < 6 || len(args) > 8 {
			return nil, fmt.Errorf("fmu_control(instanceId, targetVar, setpoint, time_from, time_to, steps [, input_sql [, effort]]) expects 6–8 arguments")
		}
		req := ControlRequest{InstanceID: args[0].AsText(), Target: args[1].AsText()}
		var err error
		if req.Setpoint, err = args[2].AsFloat(); err != nil {
			return nil, fmt.Errorf("setpoint: %w", err)
		}
		if req.TimeFrom, err = timeArg(args[3]); err != nil {
			return nil, fmt.Errorf("time_from: %w", err)
		}
		if req.TimeTo, err = timeArg(args[4]); err != nil {
			return nil, fmt.Errorf("time_to: %w", err)
		}
		steps, err := args[5].AsInt()
		if err != nil {
			return nil, fmt.Errorf("steps: %w", err)
		}
		req.Steps = int(steps)
		if len(args) >= 7 && !args[6].IsNull() {
			req.InputSQL = args[6].AsText()
		}
		if len(args) == 8 && !args[7].IsNull() {
			if req.EffortWeight, err = args[7].AsFloat(); err != nil {
				return nil, fmt.Errorf("effort: %w", err)
			}
		}
		return asStream(s.control(ctx, tx, req))
	}, true)
}
