package ml

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/sqldb"
	"repro/internal/variant"
)

// modelStore keeps trained models by output-table name, the way MADlib pairs
// a summary table with an in-database model object.
type modelStore struct {
	mu       sync.Mutex
	arima    map[string]*ARIMAModel
	logistic map[string]*LogisticModel
	linear   map[string]*LinearModel
}

// RegisterUDFs installs the MADlib-style functions into the database:
//
//	arima_train(source_table, output_table, time_col, value_col [, p, d, q])
//	arima_forecast(output_table, steps) -> table(step, forecast)
//	logregr_train(source_table, output_table, label_col, 'f1, f2, ...')
//	logregr_predict(output_table, f1, f2, ...) -> probability
//	logregr_accuracy(output_table, source_table, label_col, 'f1, ...') -> float
//	linregr_train(source_table, output_table, target_col, 'f1, f2, ...')
//	linregr_predict(output_table, f1, f2, ...) -> value
func RegisterUDFs(db *sqldb.DB) {
	store := &modelStore{
		arima:    make(map[string]*ARIMAModel),
		logistic: make(map[string]*LogisticModel),
		linear:   make(map[string]*LinearModel),
	}

	db.RegisterScalar("arima_train", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 4 && len(args) != 7 {
			return variant.Value{}, fmt.Errorf("arima_train(source, output, time_col, value_col [, p, d, q]) expects 4 or 7 arguments")
		}
		source, output := args[0].AsText(), args[1].AsText()
		timeCol, valueCol := args[2].AsText(), args[3].AsText()
		p, dOrder, q := 1, 1, 1 // MADlib's default ARIMA(1,1,1)
		if len(args) == 7 {
			var err error
			if p, err = intArg(args[4], "p"); err != nil {
				return variant.Value{}, err
			}
			if dOrder, err = intArg(args[5], "d"); err != nil {
				return variant.Value{}, err
			}
			if q, err = intArg(args[6], "q"); err != nil {
				return variant.Value{}, err
			}
		}
		rs, err := tx.QueryContext(ctx, fmt.Sprintf(
			`SELECT %s FROM %s ORDER BY %s`, quoteIdent(valueCol), quoteIdent(source), quoteIdent(timeCol)))
		if err != nil {
			return variant.Value{}, fmt.Errorf("arima_train: %w", err)
		}
		series := make([]float64, 0, len(rs.Rows))
		for _, r := range rs.Rows {
			if r[0].IsNull() {
				continue
			}
			v, err := r[0].AsFloat()
			if err != nil {
				return variant.Value{}, fmt.Errorf("arima_train: %w", err)
			}
			series = append(series, v)
		}
		model, err := FitARIMA(series, p, dOrder, q)
		if err != nil {
			return variant.Value{}, err
		}
		store.mu.Lock()
		store.arima[strings.ToLower(output)] = model
		store.mu.Unlock()
		// Summary table in the MADlib style.
		if _, err := tx.QueryContext(ctx, fmt.Sprintf(`DROP TABLE IF EXISTS %s`, quoteIdent(output))); err != nil {
			return variant.Value{}, err
		}
		if _, err := tx.QueryContext(ctx, fmt.Sprintf(
			`CREATE TABLE %s (param text, value float)`, quoteIdent(output))); err != nil {
			return variant.Value{}, err
		}
		insert := func(name string, v float64) error {
			_, err := tx.QueryContext(ctx, fmt.Sprintf(
				`INSERT INTO %s VALUES ($1, $2)`, quoteIdent(output)), name, v)
			return err
		}
		if err := insert("constant", model.Constant); err != nil {
			return variant.Value{}, err
		}
		for i, phi := range model.AR {
			if err := insert(fmt.Sprintf("ar%d", i+1), phi); err != nil {
				return variant.Value{}, err
			}
		}
		for i, theta := range model.MA {
			if err := insert(fmt.Sprintf("ma%d", i+1), theta); err != nil {
				return variant.Value{}, err
			}
		}
		if err := insert("sigma2", model.Sigma2); err != nil {
			return variant.Value{}, err
		}
		return variant.NewText(output), nil
	}, false)

	db.RegisterTable("arima_forecast", func(_ context.Context, _ *sqldb.Tx, args []variant.Value) (sqldb.RowStream, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("arima_forecast(output_table, steps) expects 2 arguments")
		}
		store.mu.Lock()
		model := store.arima[strings.ToLower(args[0].AsText())]
		store.mu.Unlock()
		if model == nil {
			return nil, fmt.Errorf("arima_forecast: no trained model %q", args[0].AsText())
		}
		steps, err := intArg(args[1], "steps")
		if err != nil {
			return nil, err
		}
		fc, err := model.Forecast(steps)
		if err != nil {
			return nil, err
		}
		out := &sqldb.ResultSet{Columns: []sqldb.Column{
			{Name: "step", Type: "integer"},
			{Name: "forecast", Type: "float"},
		}}
		for i, v := range fc {
			out.Rows = append(out.Rows, sqldb.Row{variant.NewInt(int64(i + 1)), variant.NewFloat(v)})
		}
		return out.Stream(), nil
	}, true)

	db.RegisterScalar("logregr_train", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 4 {
			return variant.Value{}, fmt.Errorf("logregr_train(source, output, label_col, features) expects 4 arguments")
		}
		source, output := args[0].AsText(), args[1].AsText()
		labelCol := args[2].AsText()
		featureCols := splitCols(args[3].AsText())
		features, labels, err := loadLabelled(ctx, tx, source, labelCol, featureCols)
		if err != nil {
			return variant.Value{}, fmt.Errorf("logregr_train: %w", err)
		}
		model, err := FitLogistic(features, labels, 0)
		if err != nil {
			return variant.Value{}, err
		}
		store.mu.Lock()
		store.logistic[strings.ToLower(output)] = model
		store.mu.Unlock()
		return variant.NewText(output), nil
	}, false)

	db.RegisterScalar("logregr_predict", func(_ context.Context, _ *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) < 2 {
			return variant.Value{}, fmt.Errorf("logregr_predict(output_table, features...) expects at least 2 arguments")
		}
		store.mu.Lock()
		model := store.logistic[strings.ToLower(args[0].AsText())]
		store.mu.Unlock()
		if model == nil {
			return variant.Value{}, fmt.Errorf("logregr_predict: no trained model %q", args[0].AsText())
		}
		fv, err := floatArgs(args[1:])
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewFloat(model.Prob(fv)), nil
	}, true)

	db.RegisterScalar("logregr_accuracy", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 4 {
			return variant.Value{}, fmt.Errorf("logregr_accuracy(output_table, source, label_col, features) expects 4 arguments")
		}
		store.mu.Lock()
		model := store.logistic[strings.ToLower(args[0].AsText())]
		store.mu.Unlock()
		if model == nil {
			return variant.Value{}, fmt.Errorf("logregr_accuracy: no trained model %q", args[0].AsText())
		}
		features, labels, err := loadLabelled(ctx, tx, args[1].AsText(), args[2].AsText(), splitCols(args[3].AsText()))
		if err != nil {
			return variant.Value{}, fmt.Errorf("logregr_accuracy: %w", err)
		}
		return variant.NewFloat(model.Accuracy(features, labels)), nil
	}, true)

	db.RegisterScalar("linregr_train", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 4 {
			return variant.Value{}, fmt.Errorf("linregr_train(source, output, target_col, features) expects 4 arguments")
		}
		source, output := args[0].AsText(), args[1].AsText()
		targetCol := args[2].AsText()
		featureCols := splitCols(args[3].AsText())
		features, target, err := loadNumeric(ctx, tx, source, targetCol, featureCols)
		if err != nil {
			return variant.Value{}, fmt.Errorf("linregr_train: %w", err)
		}
		model, err := FitLinear(features, target)
		if err != nil {
			return variant.Value{}, err
		}
		store.mu.Lock()
		store.linear[strings.ToLower(output)] = model
		store.mu.Unlock()
		return variant.NewText(output), nil
	}, false)

	db.RegisterScalar("linregr_predict", func(_ context.Context, _ *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) < 2 {
			return variant.Value{}, fmt.Errorf("linregr_predict(output_table, features...) expects at least 2 arguments")
		}
		store.mu.Lock()
		model := store.linear[strings.ToLower(args[0].AsText())]
		store.mu.Unlock()
		if model == nil {
			return variant.Value{}, fmt.Errorf("linregr_predict: no trained model %q", args[0].AsText())
		}
		fv, err := floatArgs(args[1:])
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewFloat(model.Predict(fv)), nil
	}, true)
}

func intArg(v variant.Value, name string) (int, error) {
	i, err := v.AsInt()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return int(i), nil
}

func floatArgs(args []variant.Value) ([]float64, error) {
	out := make([]float64, len(args))
	for i, a := range args {
		f, err := a.AsFloat()
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func splitCols(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// quoteIdent wraps an identifier in double quotes for safe interpolation
// into generated SQL.
func quoteIdent(s string) string {
	return `"` + strings.ReplaceAll(strings.ToLower(s), `"`, `""`) + `"`
}

func loadLabelled(ctx context.Context, tx *sqldb.Tx, table, labelCol string, featureCols []string) ([][]float64, []bool, error) {
	cols := make([]string, 0, len(featureCols)+1)
	cols = append(cols, quoteIdent(labelCol))
	for _, c := range featureCols {
		cols = append(cols, quoteIdent(c))
	}
	rs, err := tx.QueryContext(ctx, fmt.Sprintf(
		`SELECT %s FROM %s`, strings.Join(cols, ", "), quoteIdent(table)))
	if err != nil {
		return nil, nil, err
	}
	var features [][]float64
	var labels []bool
	for _, r := range rs.Rows {
		if r[0].IsNull() {
			continue
		}
		b, err := r[0].AsBool()
		if err != nil {
			return nil, nil, err
		}
		fv := make([]float64, len(featureCols))
		ok := true
		for i := range featureCols {
			if r[i+1].IsNull() {
				ok = false
				break
			}
			if fv[i], err = r[i+1].AsFloat(); err != nil {
				return nil, nil, err
			}
		}
		if !ok {
			continue
		}
		features = append(features, fv)
		labels = append(labels, b)
	}
	return features, labels, nil
}

func loadNumeric(ctx context.Context, tx *sqldb.Tx, table, targetCol string, featureCols []string) ([][]float64, []float64, error) {
	cols := make([]string, 0, len(featureCols)+1)
	cols = append(cols, quoteIdent(targetCol))
	for _, c := range featureCols {
		cols = append(cols, quoteIdent(c))
	}
	rs, err := tx.QueryContext(ctx, fmt.Sprintf(
		`SELECT %s FROM %s`, strings.Join(cols, ", "), quoteIdent(table)))
	if err != nil {
		return nil, nil, err
	}
	var features [][]float64
	var target []float64
	for _, r := range rs.Rows {
		if r[0].IsNull() {
			continue
		}
		y, err := r[0].AsFloat()
		if err != nil {
			return nil, nil, err
		}
		fv := make([]float64, len(featureCols))
		ok := true
		for i := range featureCols {
			if r[i+1].IsNull() {
				ok = false
				break
			}
			if fv[i], err = r[i+1].AsFloat(); err != nil {
				return nil, nil, err
			}
		}
		if !ok {
			continue
		}
		features = append(features, fv)
		target = append(target, y)
	}
	return features, target, nil
}
