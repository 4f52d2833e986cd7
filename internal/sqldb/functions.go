package sqldb

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/variant"
)

// ScalarFunc is a user-defined scalar function. tx is the calling
// statement's transaction: its Query/Exec run under the lock the statement
// holds (the way PostgreSQL UDFs use SPI — pgFMU's fmu_parest evaluates
// input_sql through it), and a function registered read-only gets a handle
// that refuses to write. The handle is valid for the call only, on the
// calling goroutine. ctx is the statement's context, so long-running
// functions can honour cancellation.
type ScalarFunc func(ctx context.Context, tx *Tx, args []variant.Value) (variant.Value, error)

// TableFunc is a set-returning function usable in FROM (like PostgreSQL's
// SRFs); tx and ctx as for ScalarFunc. It produces its relation as a
// RowStream; a body that has a full ResultSet returns rs.Stream(). The
// function itself runs while the database lock is held, but the
// returned stream may be iterated after the lock is released: it must only
// read data private to the stream — e.g. a result frame the function already
// computed — never live catalogue state. This is the streaming seam that lets
// large results (like fmu_simulate trajectories) flow to the client row by
// row.
type TableFunc func(ctx context.Context, tx *Tx, args []variant.Value) (RowStream, error)

// registry holds scalar and table functions, case-insensitively keyed.
// readOnly records which UDFs declared themselves free of side effects — the
// statement classifier uses it to decide shared vs exclusive locking.
type registry struct {
	mu       sync.RWMutex
	scalars  map[string]ScalarFunc
	tables   map[string]TableFunc
	readOnly map[string]bool
}

func newRegistry() *registry {
	return &registry{
		scalars:  make(map[string]ScalarFunc),
		tables:   make(map[string]TableFunc),
		readOnly: make(map[string]bool),
	}
}

func (r *registry) registerScalar(name string, fn ScalarFunc, ro bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(name)
	r.scalars[key] = fn
	r.readOnly[key] = ro
}

func (r *registry) registerTable(name string, fn TableFunc, ro bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(name)
	r.tables[key] = fn
	r.readOnly[key] = ro
}

func (r *registry) isReadOnly(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.readOnly[strings.ToLower(name)]
}

func (r *registry) scalar(name string) (ScalarFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.scalars[strings.ToLower(name)]
	return fn, ok
}

func (r *registry) table(name string) (TableFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.tables[strings.ToLower(name)]
	return fn, ok
}

// isAggregateName reports whether name is a built-in aggregate.
func isAggregateName(name string) bool {
	switch strings.ToLower(name) {
	case "count", "sum", "avg", "min", "max", "stddev":
		return true
	}
	return false
}

// callScalarUDF calls a registered scalar function, turning a panic into
// ErrInternal so that it fails only the calling statement.
func callScalarUDF(cx *evalCtx, name string, fn ScalarFunc, args []variant.Value) (v variant.Value, err error) {
	defer recoverUDF(name, &err)
	return fn(cx.ctxOrBackground(), cx.tx, args)
}

// recoverUDF is deferred around a UDF call: it recovers a panic of the
// function into *err.
func recoverUDF(name string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: function %s() panicked: %v", ErrInternal, name, r)
	}
}

func need(args []variant.Value, n int, name string) error {
	if len(args) != n {
		return fmt.Errorf("sql: %s() expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

func float1(args []variant.Value, name string, f func(float64) float64) (variant.Value, error) {
	if err := need(args, 1, name); err != nil {
		return variant.Value{}, err
	}
	if args[0].IsNull() {
		return variant.NewNull(), nil
	}
	v, err := args[0].AsFloat()
	if err != nil {
		return variant.Value{}, err
	}
	return variant.NewFloat(f(v)), nil
}

// builtinScalars are the always-available scalar functions.
var builtinScalars = map[string]func([]variant.Value) (variant.Value, error){
	"abs": func(args []variant.Value) (variant.Value, error) {
		if err := need(args, 1, "abs"); err != nil {
			return variant.Value{}, err
		}
		if args[0].IsNull() {
			return variant.NewNull(), nil
		}
		if args[0].Kind() == variant.Int {
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return variant.NewInt(v), nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewFloat(math.Abs(f)), nil
	},
	"sqrt":  func(a []variant.Value) (variant.Value, error) { return float1(a, "sqrt", math.Sqrt) },
	"exp":   func(a []variant.Value) (variant.Value, error) { return float1(a, "exp", math.Exp) },
	"ln":    func(a []variant.Value) (variant.Value, error) { return float1(a, "ln", math.Log) },
	"floor": func(a []variant.Value) (variant.Value, error) { return float1(a, "floor", math.Floor) },
	"ceil":  func(a []variant.Value) (variant.Value, error) { return float1(a, "ceil", math.Ceil) },
	"sin":   func(a []variant.Value) (variant.Value, error) { return float1(a, "sin", math.Sin) },
	"cos":   func(a []variant.Value) (variant.Value, error) { return float1(a, "cos", math.Cos) },
	"round": func(args []variant.Value) (variant.Value, error) {
		if len(args) == 1 {
			return float1(args, "round", math.Round)
		}
		if err := need(args, 2, "round"); err != nil {
			return variant.Value{}, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return variant.NewNull(), nil
		}
		v, err := args[0].AsFloat()
		if err != nil {
			return variant.Value{}, err
		}
		digits, err := args[1].AsInt()
		if err != nil {
			return variant.Value{}, err
		}
		scale := math.Pow(10, float64(digits))
		return variant.NewFloat(math.Round(v*scale) / scale), nil
	},
	"power": func(args []variant.Value) (variant.Value, error) {
		if err := need(args, 2, "power"); err != nil {
			return variant.Value{}, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return variant.NewNull(), nil
		}
		a, err := args[0].AsFloat()
		if err != nil {
			return variant.Value{}, err
		}
		b, err := args[1].AsFloat()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewFloat(math.Pow(a, b)), nil
	},
	"length": func(args []variant.Value) (variant.Value, error) {
		if err := need(args, 1, "length"); err != nil {
			return variant.Value{}, err
		}
		if args[0].IsNull() {
			return variant.NewNull(), nil
		}
		return variant.NewInt(int64(len([]rune(args[0].AsText())))), nil
	},
	"lower": func(args []variant.Value) (variant.Value, error) {
		if err := need(args, 1, "lower"); err != nil {
			return variant.Value{}, err
		}
		if args[0].IsNull() {
			return variant.NewNull(), nil
		}
		return variant.NewText(strings.ToLower(args[0].AsText())), nil
	},
	"upper": func(args []variant.Value) (variant.Value, error) {
		if err := need(args, 1, "upper"); err != nil {
			return variant.Value{}, err
		}
		if args[0].IsNull() {
			return variant.NewNull(), nil
		}
		return variant.NewText(strings.ToUpper(args[0].AsText())), nil
	},
	"trim": func(args []variant.Value) (variant.Value, error) {
		if err := need(args, 1, "trim"); err != nil {
			return variant.Value{}, err
		}
		if args[0].IsNull() {
			return variant.NewNull(), nil
		}
		return variant.NewText(strings.TrimSpace(args[0].AsText())), nil
	},
	"coalesce": func(args []variant.Value) (variant.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return variant.NewNull(), nil
	},
	"nullif": func(args []variant.Value) (variant.Value, error) {
		if err := need(args, 2, "nullif"); err != nil {
			return variant.Value{}, err
		}
		if c, err := variant.Compare(args[0], args[1]); err == nil && c == 0 {
			return variant.NewNull(), nil
		}
		return args[0], nil
	},
	"greatest": func(args []variant.Value) (variant.Value, error) {
		return extremum(args, "greatest", 1)
	},
	"least": func(args []variant.Value) (variant.Value, error) {
		return extremum(args, "least", -1)
	},
	"extract_epoch": func(args []variant.Value) (variant.Value, error) {
		// extract_epoch(ts) — seconds since Unix epoch; simplification of
		// EXTRACT(EPOCH FROM ts).
		if err := need(args, 1, "extract_epoch"); err != nil {
			return variant.Value{}, err
		}
		if args[0].IsNull() {
			return variant.NewNull(), nil
		}
		t, err := args[0].AsTime()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewFloat(float64(t.Unix())), nil
	},
	"to_timestamp": func(args []variant.Value) (variant.Value, error) {
		if err := need(args, 1, "to_timestamp"); err != nil {
			return variant.Value{}, err
		}
		if args[0].IsNull() {
			return variant.NewNull(), nil
		}
		sec, err := args[0].AsFloat()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewTime(time.Unix(int64(sec), 0).UTC()), nil
	},
}

func extremum(args []variant.Value, name string, sign int) (variant.Value, error) {
	if len(args) == 0 {
		return variant.Value{}, fmt.Errorf("sql: %s() needs at least one argument", name)
	}
	best := variant.NewNull()
	for _, a := range args {
		if a.IsNull() {
			continue
		}
		if best.IsNull() {
			best = a
			continue
		}
		c, err := variant.Compare(a, best)
		if err != nil {
			return variant.Value{}, err
		}
		if c*sign > 0 {
			best = a
		}
	}
	return best, nil
}

// builtinTableFuncs are the always-available set-returning functions.
func builtinTableFunc(name string) (TableFunc, bool) {
	switch strings.ToLower(name) {
	case "generate_series":
		return generateSeries, true
	default:
		return nil, false
	}
}

// generateSeries mirrors PostgreSQL's integer generate_series(start, stop
// [, step]). It produces rows lazily, so LIMIT over a huge series does
// bounded work.
func generateSeries(_ context.Context, _ *Tx, args []variant.Value) (RowStream, error) {
	if len(args) != 2 && len(args) != 3 {
		return nil, fmt.Errorf("sql: generate_series() expects 2 or 3 arguments, got %d", len(args))
	}
	start, err := args[0].AsInt()
	if err != nil {
		return nil, fmt.Errorf("sql: generate_series start: %w", err)
	}
	stop, err := args[1].AsInt()
	if err != nil {
		return nil, fmt.Errorf("sql: generate_series stop: %w", err)
	}
	step := int64(1)
	if len(args) == 3 {
		step, err = args[2].AsInt()
		if err != nil {
			return nil, fmt.Errorf("sql: generate_series step: %w", err)
		}
		if step == 0 {
			return nil, fmt.Errorf("sql: generate_series step cannot be zero")
		}
	}
	return &seriesStream{next: start, stop: stop, step: step}, nil
}

// seriesStream lazily yields generate_series values.
type seriesStream struct {
	next, stop, step int64
	done             bool
}

func (s *seriesStream) Columns() []Column {
	return []Column{{Name: "generate_series", Type: "integer"}}
}

func (s *seriesStream) Next() (Row, error) {
	if s.done || (s.step > 0 && s.next > s.stop) || (s.step < 0 && s.next < s.stop) {
		return nil, io.EOF
	}
	v := s.next
	s.next += s.step
	return Row{variant.NewInt(v)}, nil
}

func (s *seriesStream) Close() error {
	s.done = true
	return nil
}
