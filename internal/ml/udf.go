package ml

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/variant"
)

// RegisterUDFs installs the MADlib-style functions into the database:
//
//	arima_train(source_table, output_table, time_col, value_col [, p, d, q])
//	arima_forecast(output_table, steps) -> table(step, forecast)
//	logregr_train(source_table, output_table, label_col, 'f1, f2, ...')
//	logregr_predict(output_table, f1, f2, ...) -> probability
//	logregr_accuracy(output_table, source_table, label_col, 'f1, ...') -> float
//	linregr_train(source_table, output_table, target_col, 'f1, f2, ...')
//	linregr_predict(output_table, f1, f2, ...) -> value
//
// Each *_train replaces its output table with the model (see writeModel)
// inside the calling statement's transaction; the other functions read it
// from there.
func RegisterUDFs(db *sqldb.DB) {
	db.RegisterScalar("arima_train", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 4 && len(args) != 7 {
			return variant.Value{}, fmt.Errorf("arima_train(source, output, time_col, value_col [, p, d, q]) expects 4 or 7 arguments")
		}
		orders := []int{1, 1, 1} // p, d, q: MADlib's default ARIMA(1,1,1)
		for i := range orders[:len(args)-4] {
			var err error
			if orders[i], err = intArg(args[4+i], "pdq"[i:i+1]); err != nil {
				return variant.Value{}, err
			}
		}
		series, _, err := loadSamples(ctx, tx, args[0].AsText(), args[3].AsText(), nil, args[2].AsText(), variant.Value.AsFloat)
		if err != nil {
			return variant.Value{}, fmt.Errorf("arima_train: %w", err)
		}
		m, err := FitARIMA(series, orders[0], orders[1], orders[2])
		if err != nil {
			return variant.Value{}, err
		}
		return writeModel(ctx, tx, args[1].AsText(), m)
	}, false)

	db.RegisterTable("arima_forecast", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (sqldb.RowStream, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("arima_forecast(output_table, steps) expects 2 arguments")
		}
		m, err := loadModel[*ARIMAModel](ctx, tx, args[0].AsText())
		if err != nil {
			return nil, fmt.Errorf("arima_forecast: %w", err)
		}
		steps, err := intArg(args[1], "steps")
		if err != nil {
			return nil, err
		}
		fc, err := m.Forecast(steps)
		if err != nil {
			return nil, err
		}
		out := &sqldb.ResultSet{Columns: []sqldb.Column{{Name: "step", Type: "integer"}, {Name: "forecast", Type: "float"}}}
		for i, v := range fc {
			out.Rows = append(out.Rows, sqldb.Row{variant.NewInt(int64(i + 1)), variant.NewFloat(v)})
		}
		return out.Stream(), nil
	}, true)

	registerTrain(db, "logregr_train", "label_col", variant.Value.AsBool,
		func(x [][]float64, y []bool) (model, error) { return FitLogistic(x, y, 0) })
	registerTrain(db, "linregr_train", "target_col", variant.Value.AsFloat,
		func(x [][]float64, y []float64) (model, error) { return FitLinear(x, y) })
	registerPredict(db, "logregr_predict", func(m *LogisticModel) (float64, []float64) { return m.Intercept, m.Coef }, sigmoid)
	registerPredict(db, "linregr_predict", func(m *LinearModel) (float64, []float64) { return m.Intercept, m.Coef },
		func(z float64) float64 { return z })

	db.RegisterScalar("logregr_accuracy", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 4 {
			return variant.Value{}, fmt.Errorf("logregr_accuracy(output_table, source, label_col, features) expects 4 arguments")
		}
		cols := splitCols(args[3].AsText())
		m, err := loadModel[*LogisticModel](ctx, tx, args[0].AsText())
		if err == nil {
			err = featureCount(len(m.Coef), len(cols))
		}
		var features [][]float64
		var labels []bool
		if err == nil {
			labels, features, err = loadSamples(ctx, tx, args[1].AsText(), args[2].AsText(), cols, "", variant.Value.AsBool)
		}
		if err != nil {
			return variant.Value{}, fmt.Errorf("logregr_accuracy: %w", err)
		}
		return variant.NewFloat(m.Accuracy(features, labels)), nil
	}, true)
}

// registerTrain installs fn(source, output, yCol, 'f1, f2, ...'), which fits
// a model to source's samples and writes it to output.
func registerTrain[Y any](db *sqldb.DB, fn, yCol string, as func(variant.Value) (Y, error),
	fit func([][]float64, []Y) (model, error)) {
	db.RegisterScalar(fn, func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 4 {
			return variant.Value{}, fmt.Errorf("%s(source, output, %s, features) expects 4 arguments", fn, yCol)
		}
		y, x, err := loadSamples(ctx, tx, args[0].AsText(), args[2].AsText(), splitCols(args[3].AsText()), "", as)
		if err != nil {
			return variant.Value{}, fmt.Errorf("%s: %w", fn, err)
		}
		m, err := fit(x, y)
		if err != nil {
			return variant.Value{}, err
		}
		return writeModel(ctx, tx, args[1].AsText(), m)
	}, false)
}

// registerPredict installs fn(output_table, f1, f2, ...), which returns
// link(intercept + Σ coef·f) for the output table's model of type M.
func registerPredict[M model](db *sqldb.DB, fn string, terms func(M) (float64, []float64), link func(float64) float64) {
	db.RegisterScalar(fn, func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) < 2 {
			return variant.Value{}, fmt.Errorf("%s(output_table, features...) expects at least 2 arguments", fn)
		}
		m, err := loadModel[M](ctx, tx, args[0].AsText())
		if err != nil {
			return variant.Value{}, fmt.Errorf("%s: %w", fn, err)
		}
		intercept, coef := terms(m)
		var buf [16]float64 // one call's features, off the heap
		x, err := featureArgs(buf[:0], len(coef), args[1:])
		if err != nil {
			return variant.Value{}, fmt.Errorf("%s: %w", fn, err)
		}
		return variant.NewFloat(link(linear(intercept, coef, x))), nil
	}, true)
}

func intArg(v variant.Value, name string) (int, error) {
	i, err := v.AsInt()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return int(i), nil
}

// featureArgs appends the feature arguments of a model with want features
// to dst.
func featureArgs(dst []float64, want int, args []variant.Value) ([]float64, error) {
	if err := featureCount(want, len(args)); err != nil {
		return nil, err
	}
	for _, a := range args {
		f, err := a.AsFloat()
		if err != nil {
			return nil, err
		}
		dst = append(dst, f)
	}
	return dst, nil
}

func featureCount(want, got int) error {
	if want != got {
		return fmt.Errorf("the model has %d features, got %d", want, got)
	}
	return nil
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

// loadSamples reads table's (y, features...) rows, ordered by orderBy
// unless it is empty, skipping every row with a NULL; as converts y.
func loadSamples[Y any](ctx context.Context, tx *sqldb.Tx, table, yCol string, featureCols []string,
	orderBy string, as func(variant.Value) (Y, error)) ([]Y, [][]float64, error) {
	cols := []string{quoteIdent(yCol)}
	for _, c := range featureCols {
		cols = append(cols, quoteIdent(c))
	}
	query := fmt.Sprintf(`SELECT %s FROM %s`, strings.Join(cols, ", "), quoteIdent(table))
	if orderBy != "" {
		query += ` ORDER BY ` + quoteIdent(orderBy)
	}
	rs, err := tx.QueryContext(ctx, query)
	if err != nil {
		return nil, nil, err
	}
	var ys []Y
	var features [][]float64
rows:
	for _, r := range rs.Rows {
		for _, v := range r {
			if v.IsNull() {
				continue rows
			}
		}
		y, err := as(r[0])
		if err != nil {
			return nil, nil, err
		}
		fv := make([]float64, len(featureCols))
		for i := range fv {
			if fv[i], err = r[i+1].AsFloat(); err != nil {
				return nil, nil, err
			}
		}
		ys = append(ys, y)
		features = append(features, fv)
	}
	return ys, features, nil
}
