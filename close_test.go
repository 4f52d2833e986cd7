package pgfmu

// Close-under-load regression suite: DB.Close racing active *Tx handles,
// open streaming RowIters, and statement traffic must resolve to ErrClosed
// (or a clean success for work that slipped in first) — never a panic, a
// deadlock, or a torn engine. Graceful server shutdown
// (internal/server.Server.Shutdown) leans on exactly this path: the HTTP
// drain is best-effort, so a straggler statement can always race Close.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// closeRaceDBs yields the storage modes the race must hold under.
func closeRaceDBs(t *testing.T) map[string]func() *DB {
	t.Helper()
	return map[string]func() *DB{
		"memory": func() *DB {
			db, err := Open("")
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
		"durable": func() *DB {
			db, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return db
		},
	}
}

// okOrClosed fails the test unless err is nil or a clean shutdown error.
// ErrTxDone and ErrWriteConflict are admissible for transactional work
// racing a shutdown; anything else (or a panic, which the harness turns
// into a test failure) is a bug.
func okOrClosed(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrTxDone) ||
		errors.Is(err, ErrWriteConflict) {
		return
	}
	t.Errorf("%s: unexpected error under concurrent Close: %v", what, err)
}

func TestCloseConcurrentWithActiveTx(t *testing.T) {
	for mode, open := range closeRaceDBs(t) {
		t.Run(mode, func(t *testing.T) {
			db := open()
			if _, err := db.Exec(`CREATE TABLE c (id integer, v float)`); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				if _, err := db.Exec(`INSERT INTO c VALUES ($1, $2)`, i, float64(i)); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			start := make(chan struct{})
			// Writers: open a Tx, insert, commit — racing Close at every
			// stage of the handle lifecycle.
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for i := 0; ; i++ {
						tx, err := db.Begin()
						if err != nil {
							okOrClosed(t, err, "Begin")
							return
						}
						_, err = tx.Exec(`INSERT INTO c VALUES ($1, $2)`, 1000+w*10000+i, 0.5)
						if err != nil {
							okOrClosed(t, err, "Tx.Exec")
							_ = tx.Rollback()
							if errors.Is(err, ErrClosed) {
								return
							}
							continue
						}
						if err := tx.Commit(); err != nil {
							okOrClosed(t, err, "Tx.Commit")
							if errors.Is(err, ErrClosed) {
								return
							}
						}
					}
				}(w)
			}
			// Readers: open streaming iterators and walk them through the
			// shutdown.
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for {
						it, err := db.QueryRows(`SELECT id, v FROM c`)
						if err != nil {
							okOrClosed(t, err, "QueryRows")
							return
						}
						for it.Next() {
						}
						err = it.Err()
						okOrClosed(t, err, "RowIter.Err")
						it.Close()
						if errors.Is(err, ErrClosed) {
							return
						}
					}
				}()
			}
			// Prepared statements racing Close.
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					st, err := db.Prepare(`SELECT count(*) FROM c WHERE id = $1`)
					if err != nil {
						okOrClosed(t, err, "Prepare")
						return
					}
					_, err = st.Query(3)
					okOrClosed(t, err, "Stmt.Query")
					st.Close()
					if errors.Is(err, ErrClosed) {
						return
					}
				}
			}()

			close(start)
			time.Sleep(20 * time.Millisecond) // let traffic get in flight
			if err := db.Close(); err != nil {
				t.Errorf("Close under load: %v", err)
			}
			// Close is idempotent, including concurrently with traffic.
			if err := db.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			wg.Wait()

			// Every entry point must now be cleanly closed.
			if _, err := db.Exec(`INSERT INTO c VALUES (1, 1.0)`); !errors.Is(err, ErrClosed) {
				t.Errorf("Exec after Close: got %v, want ErrClosed", err)
			}
			if _, err := db.Query(`SELECT * FROM c`); !errors.Is(err, ErrClosed) {
				t.Errorf("Query after Close: got %v, want ErrClosed", err)
			}
			if _, err := db.Begin(); !errors.Is(err, ErrClosed) {
				t.Errorf("Begin after Close: got %v, want ErrClosed", err)
			}
		})
	}
}

// TestCloseWithOpenTxThenReopen proves a durable database closed while Tx
// handles were open recovers to exactly the committed prefix: committed
// transactions survive, uncommitted ones vanish.
func TestCloseWithOpenTxThenReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE c (id integer)`); err != nil {
		t.Fatal(err)
	}
	committed, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := committed.Exec(`INSERT INTO c VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	orphan, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orphan.Exec(`INSERT INTO c VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	// Close with the orphan still open — the graceful-shutdown shape when
	// a session is never drained.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The orphan's Commit must fail cleanly, not resurrect the write.
	if err := orphan.Commit(); !errors.Is(err, ErrClosed) && !errors.Is(err, ErrTxDone) {
		t.Fatalf("orphan Commit after Close: got %v", err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rs, err := re.Query(`SELECT id FROM c`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].String() != "1" {
		t.Fatalf("recovered rows = %v, want exactly the committed row 1", fmt.Sprint(rs.Rows))
	}
}
