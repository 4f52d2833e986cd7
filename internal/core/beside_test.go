package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/sqldb"
)

// besideParest runs q on a Conn of its own 2 ms into a SQL fmu_parest (the
// 48 h HP1 set, the default estimator), which latches nothing until its
// final write, and requires q to finish within a tenth of the fit's
// duration. q touches other, a one-row table (v = 7) the fit never reads.
func besideParest(t *testing.T, q string) *sqldb.ResultSet {
	t.Helper()
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fr, err := dataset.GenerateHP1(dataset.Config{Hours: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.LoadFrame(s.DB(), "measurements", fr); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(dataset.HP1Source, "HP1Instance1"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`CREATE TABLE other (v integer)`, `INSERT INTO other VALUES (7)`} {
		if _, err := s.DB().Exec(q); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	start := time.Now()
	end := make(chan time.Time, 1)
	go func() {
		if _, err := s.DB().Conn().QueryContext(ctx,
			`SELECT fmu_parest('{HP1Instance1}', '{SELECT * FROM measurements}', '{Cp, R}')`); err != nil {
			t.Error(err)
		}
		end <- time.Now()
	}()
	time.Sleep(2 * time.Millisecond)
	r0 := time.Now()
	rs, err := s.DB().Conn().QueryContext(ctx, q)
	took := time.Since(r0)
	if err != nil {
		t.Fatalf("%s beside the fit: %v", q, err)
	}
	done := <-end
	if !done.After(r0) {
		t.Fatalf("the fit (%v) ended before %s began", done.Sub(start), q)
	}
	if fit := done.Sub(start); took > fit/10 {
		t.Fatalf("%s beside a %v fmu_parest took %v", q, fit, took)
	}
	return rs
}

// TestReadBesideParest: a read takes no lock, so it does not wait out a
// SQL fmu_parest.
func TestReadBesideParest(t *testing.T) {
	if rs := besideParest(t, `SELECT v FROM other`); len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 7 {
		t.Fatalf("read beside the fit: %v", rs.Rows)
	}
}

// TestWriteBesideParest: an INSERT latches only its table, which the fit
// does not hold, so it does not wait out a SQL fmu_parest either.
func TestWriteBesideParest(t *testing.T) {
	if rs := besideParest(t, `INSERT INTO other VALUES (8)`); len(rs.Rows) != 1 {
		t.Fatalf("insert beside the fit affected %d rows", len(rs.Rows))
	}
}
