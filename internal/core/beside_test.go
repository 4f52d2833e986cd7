package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestReadBesideParest: a SQL fmu_parest calls a writing function, so its
// statement holds the database lock exclusively for the whole fit, but a
// read takes no database lock. On the 48 h HP1 set with the default
// estimator, a read of a one-row table the fit never touches, started 2 ms
// into the fit, finishes within a tenth of the fit's duration.
func TestReadBesideParest(t *testing.T) {
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
	rs, err := s.DB().Conn().QueryContext(ctx, `SELECT v FROM other`)
	read := time.Since(r0)
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 7 {
		t.Fatalf("read beside the fit: %v, %v", rs, err)
	}
	done := <-end
	if !done.After(r0) {
		t.Fatalf("the fit (%v) ended before the read began", done.Sub(start))
	}
	if fit := done.Sub(start); read > fit/10 {
		t.Fatalf("a read beside a %v fmu_parest took %v", fit, read)
	}
}
