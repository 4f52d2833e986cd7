package sqldb

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWriteBesideCheckpoint: a checkpoint holds commitMu only from the log's
// sync to the switch of generation, so statements run beside it and only
// commits wait. On a durable 120 000-row table, a BEGIN; INSERT of another
// table, started while the checkpoint holds commitMu, returns within a tenth
// of the checkpoint's duration; its COMMIT lands after the checkpoint: the
// new snapshot lacks the row, and the reopened database has it.
func TestWriteBesideCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE big (k integer, v float)`)
	mustExec(t, db, `INSERT INTO big SELECT g, g * 0.5 FROM generate_series(1, 120000) AS g`)
	mustExec(t, db, `CREATE TABLE other (v integer)`)

	start := time.Now()
	end := make(chan time.Time, 1)
	go func() {
		if err := db.Checkpoint(); err != nil {
			t.Error(err)
		}
		end <- time.Now()
	}()
	// Wait until the checkpoint holds commitMu (or has ended: the test then
	// fails below).
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && db.commitMu.TryLock(); {
		db.commitMu.Unlock()
		time.Sleep(50 * time.Microsecond)
	}
	c := db.Conn()
	mustExecConn(t, c, `BEGIN`)
	w0 := time.Now()
	mustExecConn(t, c, `INSERT INTO other VALUES (8)`)
	write := time.Since(w0)
	mustExecConn(t, c, `COMMIT`)
	done := <-end
	if !done.After(w0) {
		t.Fatalf("the checkpoint (%v) ended before the write began", done.Sub(start))
	}
	if ckpt := done.Sub(start); write > ckpt/10 {
		t.Fatalf("an INSERT beside a %v checkpoint took %v", ckpt, write)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(snap), `INSERT INTO "other"`) {
		t.Fatal("the commit landed in the checkpoint's snapshot, not after it")
	}
	db.SimulateCrash()
	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	if n := countRows(t, re, "other"); n != 1 {
		t.Fatalf("recovered %d rows of other, want 1", n)
	}
}

func mustExecConn(t *testing.T, c *Conn, sql string) {
	t.Helper()
	if _, err := c.QueryContext(context.Background(), sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestCommitRacingClose: a commit racing Close or SimulateCrash either
// returns an error, or it returns nil and its row is there when the
// directory reopens; no row whose commit failed is.
func TestCommitRacingClose(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "close"
		if crash {
			name = "crash"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir, DurabilityOptions{})
			mustExec(t, db, `CREATE TABLE t (a integer)`)
			var mu sync.Mutex
			acked := map[int64]bool{}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := db.Conn()
					defer c.Close()
					for i := int64(w); !stop.Load(); i += 3 {
						var err error
						if i%2 == 0 {
							_, err = c.QueryContext(context.Background(), `INSERT INTO t VALUES ($1)`, i)
						} else if _, err = c.QueryContext(context.Background(), `BEGIN`); err == nil {
							if _, err = c.QueryContext(context.Background(), `INSERT INTO t VALUES ($1)`, i); err == nil {
								_, err = c.QueryContext(context.Background(), `COMMIT`)
							}
						}
						if err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Errorf("writer %d: %v", w, err)
							}
							return
						}
						mu.Lock()
						acked[i] = true
						mu.Unlock()
					}
				}(w)
			}
			// Close once some commits are acknowledged.
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				mu.Lock()
				n := len(acked)
				mu.Unlock()
				if n >= 20 {
					break
				}
			}
			if crash {
				db.SimulateCrash()
			} else if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
			re := openDurable(t, dir, DurabilityOptions{})
			defer re.Close()
			rs, err := re.Query(`SELECT a FROM t`)
			if err != nil {
				t.Fatal(err)
			}
			got := map[int64]bool{}
			for _, r := range rs.Rows {
				got[r[0].Int()] = true
			}
			for a := range acked {
				if !got[a] {
					t.Errorf("acknowledged commit of %d lost", a)
				}
			}
			for a := range got {
				if !acked[a] {
					t.Errorf("row %d recovered, but its commit failed", a)
				}
			}
			if len(acked) == 0 {
				t.Error("no commit was acknowledged before the close")
			}
		})
	}
}

// TestTxWriterBesideVacuumLoop: a transaction's writes wait for nothing but
// table latches, so a Vacuum loop does not starve them. Beside one, a
// transfer run as BEGIN; UPDATE; UPDATE; COMMIT commits at least a quarter
// as often as the same transfer run as one autocommit UPDATE.
func TestTxWriterBesideVacuumLoop(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE acct (id integer, bal integer)`)
	mustExec(t, db, `INSERT INTO acct SELECT g, 100 FROM generate_series(0, 1999) AS g`)
	rate := func(transfer func(c *Conn, m int) error) float64 {
		var stop atomic.Bool
		var wg sync.WaitGroup
		defer func() {
			stop.Store(true)
			wg.Wait()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := db.Vacuum(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		c := db.Conn()
		commits := 0
		t0 := time.Now()
		for time.Since(t0) < 300*time.Millisecond {
			if err := transfer(c, 2*(commits%1000)); err != nil {
				t.Fatal(err)
			}
			commits++
		}
		return float64(commits) / time.Since(t0).Seconds()
	}
	single := rate(func(c *Conn, m int) error {
		_, err := c.QueryContext(context.Background(), `UPDATE acct SET bal = bal + CASE WHEN id = $1 THEN -3 ELSE 3 END WHERE id = $1 OR id = $2`, m, m+1)
		return err
	})
	multi := rate(func(c *Conn, m int) error {
		for _, st := range []struct {
			q    string
			args []any
		}{{`BEGIN`, nil}, {`UPDATE acct SET bal = bal - 3 WHERE id = $1`, []any{m}}, {`UPDATE acct SET bal = bal + 3 WHERE id = $1`, []any{m + 1}}, {`COMMIT`, nil}} {
			if _, err := c.QueryContext(context.Background(), st.q, st.args...); err != nil {
				return err
			}
		}
		return nil
	})
	t.Logf("beside a Vacuum loop: %.0f transfers/s as one UPDATE, %.0f as a transaction", single, multi)
	if multi < single/4 {
		t.Fatalf("a transaction's transfer committed %.0f times/s beside a Vacuum loop, under a quarter of the %.0f of one autocommit UPDATE", multi, single)
	}
	rs, err := db.Query(`SELECT sum(bal) FROM acct`)
	if err != nil || rs.Rows[0][0].Int() != 200000 {
		t.Fatalf("sum(bal) = %v, %v; want 200000", rs, err)
	}
}
