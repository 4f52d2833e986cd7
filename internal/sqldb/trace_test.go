package sqldb

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// traced runs sql on c with a fresh Trace attached and returns the
// materialized rows, the error text and the trace.
func traced(t *testing.T, c *Conn, sql string, args ...any) (*ResultSet, string, *Trace) {
	t.Helper()
	tr := &Trace{}
	rs, err := c.QueryContext(WithTrace(context.Background(), tr), sql, args...)
	v := reflect.ValueOf(*tr)
	for i := 0; i < v.NumField(); i++ {
		if d, ok := v.Field(i).Interface().(time.Duration); ok && d < 0 {
			t.Fatalf("%s: %s = %v", sql, v.Type().Field(i).Name, d)
		}
	}
	if err != nil {
		return nil, err.Error(), tr
	}
	return rs, "", tr
}

func TestTracePhases(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			db := New()
			if durable {
				if err := db.EnableDurability(t.TempDir(), DurabilityOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			defer db.Close()
			c := db.Conn()
			traced(t, c, `CREATE TABLE kv (k integer, v float)`)
			_, _, ins := traced(t, c, `INSERT INTO kv VALUES (1, 0.5)`)
			if durable != (ins.Fsync > 0) || ins.Open <= 0 || ins.Commit <= 0 {
				t.Fatalf("insert trace %+v on a durable=%v database", *ins, durable)
			}
			if durable != (ins.WALAppend > 0) {
				t.Fatalf("insert WAL append %v on a durable=%v database", ins.WALAppend, durable)
			}
			if _, _, read := traced(t, c, `SELECT v FROM kv WHERE k = 1`); read.Cached || read.Parse <= 0 {
				t.Fatalf("first read trace %+v", *read)
			}
			if _, _, read := traced(t, c, `SELECT v FROM kv WHERE k = 1`); !read.Cached || read.Open <= 0 || read.Fsync != 0 || read.Commit != 0 || read.LatchWait != 0 {
				t.Fatalf("repeated read trace %+v", *read)
			}
			// Neither a read nor a BEGIN waits out a transaction that
			// latched the table.
			ex, err := db.BeginTx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ex.Exec(`INSERT INTO kv VALUES (3, 2.5)`); err != nil {
				t.Fatal(err)
			}
			if _, _, read := traced(t, c, `SELECT v FROM kv WHERE k = 1`); read.LatchWait != 0 {
				t.Fatalf("read beside a transaction that latched its table: %+v", *read)
			}
			begin := make(chan error, 1)
			go func() {
				tx, err := db.Begin()
				if err == nil {
					err = tx.Rollback()
				}
				begin <- err
			}()
			select {
			case err := <-begin:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("BEGIN waited for a transaction that latched a table")
			}
			if err := ex.Rollback(); err != nil {
				t.Fatal(err)
			}
			traced(t, c, `BEGIN`)
			if _, _, in := traced(t, c, `INSERT INTO kv VALUES (2, 1.5)`); in.Fsync != 0 || in.Commit != 0 {
				t.Fatalf("an insert inside BEGIN committed: %+v", *in)
			}
			if _, _, commit := traced(t, c, `COMMIT`); durable != (commit.Fsync > 0) || commit.Commit <= 0 {
				t.Fatalf("COMMIT trace %+v on a durable=%v database", *commit, durable)
			}
		})
	}
}

// TestTraceChangesNoResult: a traced statement returns the rows and the
// error text an untraced one does, and a prepared one reports a cached plan.
func TestTraceChangesNoResult(t *testing.T) {
	db := newSuiteDB(t)
	c := db.Conn()
	for _, q := range []string{
		`CREATE TABLE kv (k integer, v float)`,
		`INSERT INTO kv VALUES (1, 0.5), (2, 1.5), (3, 2.5)`,
		`CREATE INDEX kv_k ON kv (k)`,
	} {
		if _, err := c.ExecContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`SELECT k, v FROM kv ORDER BY k`,
		`SELECT sum(v) FROM kv WHERE k >= 2`,
		`SELECT v FROM nosuch`,
		`SELECT 1 / (k - 2) FROM kv`,
		`SELEC 1`,
		`UPDATE kv SET v = v + 1 WHERE k = 2`,
		`SELECT k, v FROM kv ORDER BY k`,
	} {
		plain, err := c.QueryContext(context.Background(), q)
		plainErr := ""
		if err != nil {
			plainErr = err.Error()
		}
		rs, tracedErr, _ := traced(t, c, q)
		if tracedErr != plainErr || !reflect.DeepEqual(rs, plain) {
			t.Fatalf("%s: traced %v / %q, untraced %v / %q", q, rs, tracedErr, plain, plainErr)
		}
	}
	st, err := c.PrepareContext(context.Background(), `SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	if _, err := st.QueryContext(WithTrace(context.Background(), tr), 2); err != nil || !tr.Cached || tr.Parse != 0 {
		t.Fatalf("prepared read: %v, trace %+v", err, *tr)
	}
}
