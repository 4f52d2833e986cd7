package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/variant"
)

// registerUDFs wires the pgFMU UDF suite into the SQL engine. A UDF body runs
// its SQL through tx, its statement's transaction, under the lock the
// statement holds. Functions that only read — including fmu_simulate,
// fmu_validate and fmu_control, which compute from a snapshot of the
// instance and a read-only input query — are registered read-only, so
// statements calling them take the shared path: no latch, no WAL record,
// and a tx that refuses to write.
func (s *Session) registerUDFs() {
	db := s.db

	// fmu_create(modelRef [, instanceId]) -> instanceId
	db.RegisterScalar("fmu_create", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 1 && len(args) != 2 {
			return variant.Value{}, fmt.Errorf("fmu_create(modelRef [, instanceId]) expects 1 or 2 arguments")
		}
		modelRef := args[0].AsText()
		instanceID := ""
		if len(args) == 2 {
			instanceID = args[1].AsText()
		}
		// The paper's queries also appear with the arguments swapped
		// (fmu_create('HP0Instance1', '/tmp/model.mo')); detect and accept.
		if len(args) == 2 && !looksLikeModelRef(modelRef) && looksLikeModelRef(instanceID) {
			modelRef, instanceID = instanceID, modelRef
		}
		unit, err := resolveModelRef(modelRef)
		if err != nil {
			return variant.Value{}, err
		}
		id, err := s.create(ctx, tx, unit, instanceID)
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewText(id), nil
	}, false)

	// fmu_copy(instanceId [, instanceId2]) -> instanceId2
	db.RegisterScalar("fmu_copy", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 1 && len(args) != 2 {
			return variant.Value{}, fmt.Errorf("fmu_copy(instanceId [, instanceId2]) expects 1 or 2 arguments")
		}
		newID := ""
		if len(args) == 2 {
			newID = args[1].AsText()
		}
		id, err := s.copy(ctx, tx, args[0].AsText(), newID)
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewText(id), nil
	}, false)

	// fmu_variables(instanceId) -> table
	db.RegisterTable("fmu_variables", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (sqldb.RowStream, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("fmu_variables(instanceId) expects 1 argument")
		}
		return asStream(s.variables(ctx, tx, args[0].AsText()))
	}, true)

	// fmu_get(instanceId, varName) -> table(initialValue, minValue, maxValue)
	db.RegisterTable("fmu_get", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (sqldb.RowStream, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("fmu_get(instanceId, varName) expects 2 arguments")
		}
		initial, minV, maxV, err := s.get(ctx, tx, args[0].AsText(), args[1].AsText())
		if err != nil {
			return nil, err
		}
		return sqldb.NewSliceStream(
			[]sqldb.Column{
				{Name: "initialValue", Type: "variant"},
				{Name: "minValue", Type: "variant"},
				{Name: "maxValue", Type: "variant"},
			},
			[]sqldb.Row{{initial, minV, maxV}}), nil
	}, true)

	setter := func(name, attr string) {
		db.RegisterScalar(name, func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
			if len(args) != 3 {
				return variant.Value{}, fmt.Errorf("%s(instanceId, varName, value) expects 3 arguments", name)
			}
			v, err := args[2].AsFloat()
			if err != nil {
				return variant.Value{}, fmt.Errorf("%s: %w", name, err)
			}
			if err := s.setValue(ctx, tx, args[0].AsText(), args[1].AsText(), attr, v); err != nil {
				return variant.Value{}, err
			}
			return args[0], nil
		}, false)
	}
	setter("fmu_set_initial", "initial")
	setter("fmu_set_minimum", "min")
	setter("fmu_set_maximum", "max")

	// fmu_reset(instanceId) -> instanceId
	db.RegisterScalar("fmu_reset", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 1 {
			return variant.Value{}, fmt.Errorf("fmu_reset(instanceId) expects 1 argument")
		}
		if err := s.reset(ctx, tx, args[0].AsText()); err != nil {
			return variant.Value{}, err
		}
		return args[0], nil
	}, false)

	// fmu_delete_instance(instanceId)
	db.RegisterScalar("fmu_delete_instance", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 1 {
			return variant.Value{}, fmt.Errorf("fmu_delete_instance(instanceId) expects 1 argument")
		}
		if err := s.deleteInstance(ctx, tx, args[0].AsText()); err != nil {
			return variant.Value{}, err
		}
		return variant.NewBool(true), nil
	}, false)

	// fmu_delete_model(modelId)
	db.RegisterScalar("fmu_delete_model", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 1 {
			return variant.Value{}, fmt.Errorf("fmu_delete_model(modelId) expects 1 argument")
		}
		if err := s.deleteModel(ctx, tx, args[0].AsText()); err != nil {
			return variant.Value{}, err
		}
		return variant.NewBool(true), nil
	}, false)

	// fmu_parest(instanceIds, input_sqls [, pars [, threshold]])
	//   -> '{rmse1, rmse2, ...}' (the paper's estimationErrors list)
	// A cancelled statement context aborts the GA / local-search iterations
	// within one objective evaluation per worker.
	db.RegisterScalar("fmu_parest", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		results, err := s.parestFromArgs(ctx, tx, args)
		if err != nil {
			return variant.Value{}, err
		}
		parts := make([]string, len(results))
		for i, r := range results {
			parts[i] = strconv.FormatFloat(r.RMSE, 'g', 6, 64)
		}
		return variant.NewText("{" + strings.Join(parts, ", ") + "}"), nil
	}, false)

	// fmu_parest_report(...) -> table(instanceId, rmse, warm_start) for
	// analytical use of estimation outcomes.
	db.RegisterTable("fmu_parest_report", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (sqldb.RowStream, error) {
		results, err := s.parestFromArgs(ctx, tx, args)
		if err != nil {
			return nil, err
		}
		out := &sqldb.ResultSet{Columns: []sqldb.Column{
			{Name: "instanceId", Type: "text"},
			{Name: "rmse", Type: "float"},
			{Name: "warm_start", Type: "boolean"},
		}}
		for _, r := range results {
			out.Rows = append(out.Rows, sqldb.Row{
				variant.NewText(r.InstanceID),
				variant.NewFloat(r.RMSE),
				variant.NewBool(r.UsedWarmStart),
			})
		}
		return out.Stream(), nil
	}, false)

	// fmu_validate(instanceId, input_sql [, pars]) -> rmse
	db.RegisterScalar("fmu_validate", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return variant.Value{}, fmt.Errorf("fmu_validate(instanceId, input_sql [, pars]) expects 2 or 3 arguments")
		}
		var pars []string
		if len(args) == 3 {
			pars = splitBraceList(args[2].AsText())
		}
		rmse, err := s.validate(ctx, tx, args[0].AsText(), args[1].AsText(), pars)
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewFloat(rmse), nil
	}, true)

	// fmu_simulate(instanceId [, input_sql [, time_from, time_to]])
	//   -> table(simulationTime, instanceId, varName, value)
	// The simulation runs under the statement's (shared) lock, but the
	// Table-4 long-format rows are rendered lazily from the compact result
	// frame — so `SELECT ... FROM fmu_simulate(...) LIMIT k` does bounded
	// materialization work, and large trajectories stream to the client with
	// bounded memory.
	db.RegisterTable("fmu_simulate", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (sqldb.RowStream, error) {
		if len(args) < 1 || len(args) > 4 {
			return nil, fmt.Errorf("fmu_simulate(instanceId [, input_sql [, time_from, time_to]]) expects 1–4 arguments")
		}
		req := SimulateRequest{InstanceID: args[0].AsText()}
		if len(args) >= 2 && !args[1].IsNull() {
			req.InputSQL = args[1].AsText()
		}
		if len(args) == 3 {
			return nil, fmt.Errorf("core: incomplete simulation time interval: both time_from and time_to are required")
		}
		if len(args) == 4 {
			from, err := timeArg(args[2])
			if err != nil {
				return nil, fmt.Errorf("time_from: %w", err)
			}
			to, err := timeArg(args[3])
			if err != nil {
				return nil, fmt.Errorf("time_to: %w", err)
			}
			req.TimeFrom, req.TimeTo = &from, &to
		}
		res, timestamps, err := s.simulateFrame(ctx, tx, req)
		if err != nil {
			return nil, err
		}
		return newSimResultStream(req.InstanceID, res, timestamps), nil
	}, true)

	s.registerControlUDF()
	s.registerJobUDFs()

	// fmu_models() -> catalogue summary for interactive inspection.
	db.RegisterTable("fmu_models", func(ctx context.Context, tx *sqldb.Tx, _ []variant.Value) (sqldb.RowStream, error) {
		return asStream(tx.QueryContext(ctx, `SELECT modelid, modelname, fmusize FROM model`))
	}, true)

	// fmu_instances() -> catalogued instance listing.
	db.RegisterTable("fmu_instances", func(ctx context.Context, tx *sqldb.Tx, _ []variant.Value) (sqldb.RowStream, error) {
		return asStream(tx.QueryContext(ctx, `SELECT instanceid, modelid FROM modelinstance`))
	}, true)
}

// asStream adapts a materialized result to a table UDF's return.
func asStream(rs *sqldb.ResultSet, err error) (sqldb.RowStream, error) {
	if err != nil {
		return nil, err
	}
	return rs.Stream(), nil
}

// parestFromArgs decodes the paper's brace-list UDF argument convention.
func (s *Session) parestFromArgs(ctx context.Context, tx *sqldb.Tx, args []variant.Value) ([]ParestResult, error) {
	if len(args) < 2 || len(args) > 4 {
		return nil, fmt.Errorf("fmu_parest(instanceIds, input_sqls [, pars [, threshold]]) expects 2–4 arguments")
	}
	instanceIDs := splitBraceList(args[0].AsText())
	inputSQLs := splitBraceList(args[1].AsText())
	var pars []string
	if len(args) >= 3 && !args[2].IsNull() {
		pars = splitBraceList(args[2].AsText())
	}
	threshold := s.threshold
	if len(args) == 4 && !args[3].IsNull() {
		var err error
		if threshold, err = args[3].AsFloat(); err != nil {
			return nil, fmt.Errorf("threshold: %w", err)
		}
	}
	return s.parest(ctx, tx, instanceIDs, inputSQLs, pars, threshold)
}

// timeArg converts a SQL time_from/time_to argument (number or timestamp)
// to model time seconds.
func timeArg(v variant.Value) (float64, error) {
	if v.Kind() == variant.Time {
		return float64(v.Time().Unix()), nil
	}
	if v.Kind() == variant.Text {
		if t, err := v.AsTime(); err == nil {
			return float64(t.Unix()), nil
		}
	}
	return v.AsFloat()
}

// looksLikeModelRef reports whether a string can plausibly be a model
// reference (used to accept the paper's swapped-argument fmu_create calls).
func looksLikeModelRef(s string) bool {
	return strings.HasSuffix(s, ".fmu") || strings.HasSuffix(s, ".mo") || strings.Contains(s, "model ")
}
