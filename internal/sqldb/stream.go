package sqldb

import (
	"fmt"
	"strings"

	"repro/internal/variant"
)

// FROM-item resolution shared by every executor: a function call in FROM
// becomes a row stream, and any FROM item's relation shape becomes the
// sourceInfo expressions over its rows compile against.

// callTableFunc resolves a FROM-clause function into a row stream: builtin
// SRFs, registered table UDFs (streaming or materialized), or — PostgreSQL
// style — a scalar function as a one-row relation. A panic of a UDF, or of
// the stream a table UDF returned (udfStream), fails the statement with
// ErrInternal naming the function.
func (db *DB) callTableFunc(cx *evalCtx, name string, args []variant.Value) (_ RowStream, err error) {
	defer recoverUDF(name, &err)
	ctx := cx.ctxOrBackground()
	if fn, ok := builtinTableFunc(name); ok {
		return fn(ctx, db, args)
	}
	if fn, ok := db.funcs.table(name); ok {
		st, err := fn(ctx, db, args)
		if err != nil {
			return nil, err
		}
		g := udfStream{RowStream: st, name: name}
		if _, ok := st.(BatchSource); ok {
			return &udfBatchStream{g}, nil
		}
		return &g, nil
	}
	if fn, ok := db.funcs.scalar(strings.ToLower(name)); ok {
		v, err := fn(ctx, db, args)
		if err != nil {
			return nil, err
		}
		return NewSliceStream([]Column{{Name: name, Type: "variant"}}, []Row{{v}}), nil
	}
	return nil, fmt.Errorf("sql: unknown function %s() in FROM", name)
}

// udfStream recovers a panic in the Next or Close of a table UDF's stream
// into ErrInternal, as recoverUDF does for the call. Every Next runs on the
// statement's goroutine, some under the database lock (a lateral item is
// drained at open), so this one wrapper keeps a panicking stream from
// unwinding past the lock or the caller.
type udfStream struct {
	RowStream
	name string
}

func (s *udfStream) Next() (_ Row, err error) {
	defer recoverUDF(s.name, &err)
	return s.RowStream.Next()
}

func (s *udfStream) Close() (err error) {
	defer recoverUDF(s.name, &err)
	return s.RowStream.Close()
}

// udfBatchStream is udfStream over a BatchSource, so that the batch paths
// (newVecFuncScanStream, opSource.batchTail) still take it.
type udfBatchStream struct{ udfStream }

func (s *udfBatchStream) NextBatch(max int) (_ *Batch, err error) {
	defer recoverUDF(s.name, &err)
	return s.RowStream.(BatchSource).NextBatch(max)
}

// fromItemInfo computes the sourceInfo for one FROM item given the raw
// column shape of its relation: alias resolution, PostgreSQL's
// single-column function rename, and explicit column aliases.
func fromItemInfo(item FromItem, cols []Column) (sourceInfo, error) {
	alias := item.Alias
	if alias == "" {
		switch {
		case item.Table != "":
			alias = strings.ToLower(item.Table)
		case item.Func != nil:
			alias = strings.ToLower(item.Func.Name)
		}
	}
	// PostgreSQL rule: aliasing a function item that returns a single
	// column renames that column too (generate_series(...) AS id).
	if item.Func != nil && item.Alias != "" && len(cols) == 1 && len(item.ColAliases) == 0 {
		cols = []Column{{Name: item.Alias, Type: cols[0].Type}}
	}
	if len(item.ColAliases) > 0 {
		if len(item.ColAliases) > len(cols) {
			return sourceInfo{}, fmt.Errorf("sql: %d column aliases for %d columns", len(item.ColAliases), len(cols))
		}
		cols = append([]Column(nil), cols...)
		for i, a := range item.ColAliases {
			cols[i].Name = a
		}
	}
	return sourceInfo{alias: alias, columns: cols, width: len(cols)}, nil
}
