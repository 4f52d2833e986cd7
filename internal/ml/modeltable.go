package ml

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/variant"
)

// A trained model lives in its output table and nowhere else, as in MADlib:
// one (param text, value float) row per number of the model, named by its
// fields. The first field names the model's kind:
//
//	linear:   r2, intercept, coef1..k
//	logistic: iterations, intercept, coef1..k
//	ARIMA:    p, d, q, constant, ar1..p, ma1..q, sigma2, tail1..n, resid1..m
type model interface{ fields() []field }

// A field is one number of a model (num, or count for an integer), or a
// vector of them stored as name1..nameN.
type field struct {
	name  string
	num   *float64
	count *int
	vec   *[]float64
}

func (m *LinearModel) fields() []field {
	return []field{{name: "r2", num: &m.R2}, {name: "intercept", num: &m.Intercept}, {name: "coef", vec: &m.Coef}}
}

func (m *LogisticModel) fields() []field {
	return []field{{name: "iterations", count: &m.Iterations}, {name: "intercept", num: &m.Intercept},
		{name: "coef", vec: &m.Coef}}
}

func (m *ARIMAModel) fields() []field {
	return []field{{name: "p", count: &m.P}, {name: "d", count: &m.D}, {name: "q", count: &m.Q},
		{name: "constant", num: &m.Constant}, {name: "ar", vec: &m.AR}, {name: "ma", vec: &m.MA},
		{name: "sigma2", num: &m.Sigma2}, {name: "tail", vec: &m.Tail}, {name: "resid", vec: &m.residTail}}
}

// writeModel replaces table with m inside tx, so the model commits, rolls
// back and survives a reopen with the transaction.
func writeModel(ctx context.Context, tx *sqldb.Tx, table string, m model) (variant.Value, error) {
	var rows []string
	var args []any
	add := func(name string, v float64) {
		rows = append(rows, fmt.Sprintf("($%d, $%d)", len(args)+1, len(args)+2))
		args = append(args, name, v)
	}
	for _, f := range m.fields() {
		switch {
		case f.num != nil:
			add(f.name, *f.num)
		case f.count != nil:
			add(f.name, float64(*f.count))
		default:
			for i, v := range *f.vec {
				add(f.name+strconv.Itoa(i+1), v)
			}
		}
	}
	name := quoteIdent(table)
	for _, stmt := range []string{`DROP TABLE IF EXISTS ` + name, `CREATE TABLE ` + name + ` (param text, value float)`} {
		if _, err := tx.ExecContext(ctx, stmt); err != nil {
			return variant.Value{}, err
		}
	}
	if _, err := tx.ExecContext(ctx, `INSERT INTO `+name+` VALUES `+strings.Join(rows, ", "), args...); err != nil {
		return variant.Value{}, err
	}
	return variant.NewText(table), nil
}

// loadModel returns the model of type M in table, decoded once per
// statement (sqldb.Tx.Memo), so a per-row call costs a map lookup.
func loadModel[M model](ctx context.Context, tx *sqldb.Tx, table string) (M, error) {
	v, err := tx.Memo(strings.ToLower(table), func() (any, error) {
		rs, err := tx.QueryContext(ctx, `SELECT param, value FROM `+quoteIdent(table))
		if errors.Is(err, sqldb.ErrNoSuchTable) {
			return nil, fmt.Errorf("no trained model %q", table)
		}
		var m model
		if err == nil {
			m, err = decodeModel(rs.Rows)
		}
		if err != nil {
			return nil, fmt.Errorf("%q is not a model table: %w", table, err)
		}
		return m, nil
	})
	m, ok := v.(M)
	if err == nil && !ok {
		err = fmt.Errorf("%q holds a %T, not a %T", table, v, m)
	}
	return m, err
}

// decodeModel rebuilds the model a model table's rows describe.
func decodeModel(rows []sqldb.Row) (model, error) {
	vals := make(map[string]float64, len(rows))
	for _, r := range rows {
		v, err := r[1].AsFloat()
		if err != nil {
			return nil, fmt.Errorf("param %q: %w", r[0].AsText(), err)
		}
		vals[r[0].AsText()] = v
	}
	for _, m := range []model{&LinearModel{}, &LogisticModel{}, &ARIMAModel{}} {
		fs := m.fields()
		if _, ok := vals[fs[0].name]; !ok {
			continue
		}
		for _, f := range fs {
			if err := f.decode(vals); err != nil {
				return nil, err
			}
		}
		if a, ok := m.(*ARIMAModel); ok && (len(a.AR) != a.P || len(a.MA) != a.Q || len(a.Tail) <= a.D) {
			return nil, fmt.Errorf("ARIMA(%d,%d,%d) with %d ar, %d ma and %d tail params",
				a.P, a.D, a.Q, len(a.AR), len(a.MA), len(a.Tail))
		}
		return m, nil
	}
	return nil, errors.New("no r2, iterations or p param names a model kind")
}

// decode sets f from vals; a vector must have no gap.
func (f field) decode(vals map[string]float64) error {
	if f.vec != nil {
		n := 0
		for k := range vals {
			if i, err := strconv.Atoi(strings.TrimPrefix(k, f.name)); err == nil && i > 0 && strings.HasPrefix(k, f.name) {
				n++
			}
		}
		*f.vec = make([]float64, n)
		for i := range *f.vec {
			v, ok := vals[f.name+strconv.Itoa(i+1)]
			if !ok {
				return fmt.Errorf("no %s%d param", f.name, i+1)
			}
			(*f.vec)[i] = v
		}
		return nil
	}
	v, ok := vals[f.name]
	switch {
	case !ok:
		return fmt.Errorf("no %s param", f.name)
	case f.num != nil:
		*f.num = v
	case v < 0 || v > math.MaxInt32 || v != math.Trunc(v):
		return fmt.Errorf("param %s = %v is not a count", f.name, v)
	default:
		*f.count = int(v)
	}
	return nil
}
