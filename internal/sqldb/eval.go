package sqldb

import (
	"context"
	"fmt"
	"math"

	"repro/internal/variant"
)

// evalCtx carries evaluation state: the DB (for function registries and
// the UDFs it is handed to), bound prepared-statement parameters, the
// calling statement's context, and what a compiled expression reads besides
// its row.
type evalCtx struct {
	db     *DB
	params []variant.Value
	// ctx is the statement's context; nil means background. Long row loops
	// poll it via checkCancel, and UDFs receive it.
	ctx context.Context
	// outer holds the rows of the levels enclosing a lateral item's run (or
	// a subquery inside one), nearest first; levels are their layouts
	// (compiler.outer).
	outer  []Row
	levels [][]sourceInfo
	// group is the finished group a grouped projection reads
	// (compiler.group); streams evaluating one set it on a private copy.
	group *aggGroup
	// txn is the transaction this statement executes in (nil on the plain
	// read path and during recovery replay); snap is the MVCC snapshot every
	// table scan filters through (see mvcc.go); cat is the catalogue its
	// names resolve in (DB.catalogFor).
	txn  *txnState
	snap snapshot
	cat  *catalogValue
	// tx is the handle the statement's UDFs receive; nil when it calls none.
	tx *Tx
}

// touch forwards to the statement's transaction; it is a no-op during
// recovery replay (txn == nil), which rebuilds committed state and never
// rolls back.
func (cx *evalCtx) touch(t *Table) {
	if cx.txn != nil {
		cx.txn.touch(t)
	}
}

// logging reports whether the statement's changes are logged: it runs in a
// transaction (not recovery replay) on a durable database. Callers check it
// before encoding a record.
func (cx *evalCtx) logging() bool { return cx.txn != nil && cx.db.wal.Load() != nil }

// logWAL buffers a record of the statement's change for its transaction's
// commit; callers check logging first.
func (cx *evalCtx) logWAL(rec walRecord) { cx.txn.pending = append(cx.txn.pending, rec) }

// ctxOrBackground returns the statement context for handing to UDFs.
func (cx *evalCtx) ctxOrBackground() context.Context {
	if cx.ctx != nil {
		return cx.ctx
	}
	return context.Background()
}

// checkCancel polls the statement context every 256th work unit (i counts
// rows in the calling loop), so large scans stop promptly after
// cancellation without paying a per-row synchronization cost.
func (cx *evalCtx) checkCancel(i int) error {
	if cx.ctx == nil || i&255 != 0 {
		return nil
	}
	return cx.ctx.Err()
}

// errIntRange is the execution error raised when 64-bit integer arithmetic
// would wrap. Every executor strategy — compiled closures, vectorized
// kernels and fallback lanes, the sum() accumulators, and the reference
// executor's interpreter — funnels through
// the checked helpers below, so the error text is identical everywhere and
// the differential suites can assert exact parity.
var errIntRange = fmt.Errorf("sql: integer out of range")

func addInt64(a, b int64) (int64, error) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, errIntRange
	}
	return s, nil
}

func subInt64(a, b int64) (int64, error) {
	d := a - b
	if (a >= 0 && b < 0 && d < 0) || (a < 0 && b > 0 && d >= 0) {
		return 0, errIntRange
	}
	return d, nil
}

func mulInt64(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	p := a * b
	// p/b recovers a for every in-range product; the MinInt64*-1 pair is the
	// one wrap where the quotient check is fooled (Go defines MinInt64 / -1
	// as MinInt64, so p/b == a despite the overflow).
	if p/b != a || (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, errIntRange
	}
	return p, nil
}

func negInt64(a int64) (int64, error) {
	if a == math.MinInt64 {
		return 0, errIntRange
	}
	return -a, nil
}

func evalArith(op string, l, r variant.Value) (variant.Value, error) {
	// Integer arithmetic stays integral (except /), like PostgreSQL... but
	// unlike PostgreSQL, integer division producing a non-integral quotient
	// promotes to float to avoid silent truncation surprises in analytics.
	if l.Kind() == variant.Int && r.Kind() == variant.Int {
		a, b := l.Int(), r.Int()
		switch op {
		case "+":
			s, err := addInt64(a, b)
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewInt(s), nil
		case "-":
			d, err := subInt64(a, b)
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewInt(d), nil
		case "*":
			p, err := mulInt64(a, b)
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewInt(p), nil
		case "%":
			if b == 0 {
				return variant.Value{}, fmt.Errorf("sql: modulo by zero")
			}
			return variant.NewInt(a % b), nil
		case "/":
			if b == 0 {
				return variant.Value{}, fmt.Errorf("sql: division by zero")
			}
			if a%b == 0 {
				if a == math.MinInt64 && b == -1 {
					return variant.Value{}, errIntRange
				}
				return variant.NewInt(a / b), nil
			}
			return variant.NewFloat(float64(a) / float64(b)), nil
		}
	}
	af, err := l.AsFloat()
	if err != nil {
		return variant.Value{}, fmt.Errorf("sql: %s: %w", op, err)
	}
	bf, err := r.AsFloat()
	if err != nil {
		return variant.Value{}, fmt.Errorf("sql: %s: %w", op, err)
	}
	switch op {
	case "+":
		return variant.NewFloat(af + bf), nil
	case "-":
		return variant.NewFloat(af - bf), nil
	case "*":
		return variant.NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return variant.Value{}, fmt.Errorf("sql: division by zero")
		}
		return variant.NewFloat(af / bf), nil
	case "%":
		if bf == 0 {
			return variant.Value{}, fmt.Errorf("sql: modulo by zero")
		}
		return variant.NewFloat(math.Mod(af, bf)), nil
	}
	return variant.Value{}, fmt.Errorf("sql: unknown arithmetic operator %q", op)
}

// castValue implements :: and CAST semantics.
func castValue(v variant.Value, typ string) (variant.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch typ {
	case "integer":
		i, err := v.AsInt()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewInt(i), nil
	case "float":
		f, err := v.AsFloat()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewFloat(f), nil
	case "text":
		return variant.NewText(v.AsText()), nil
	case "boolean":
		b, err := v.AsBool()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewBool(b), nil
	case "timestamp":
		t, err := v.AsTime()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewTime(t), nil
	case "variant":
		return v, nil
	default:
		return variant.Value{}, fmt.Errorf("sql: cannot cast to %q", typ)
	}
}
