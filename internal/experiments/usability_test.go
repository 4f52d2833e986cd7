package experiments

import (
	"math"
	"testing"
)

func TestTable1Totals(t *testing.T) {
	python, pgfmu := TotalLines()
	if python != 88 {
		t.Errorf("python lines = %d, want 88 (paper Table 1)", python)
	}
	if pgfmu != 4 {
		t.Errorf("pgfmu lines = %d, want 4 (paper Table 1)", pgfmu)
	}
	// The 22x fewer-lines headline.
	ratio := float64(python) / float64(pgfmu)
	if ratio != 22 {
		t.Errorf("line ratio = %v, want 22", ratio)
	}
}

func TestDistinctPythonPackages(t *testing.T) {
	if got := DistinctPythonPackages(); got != 6 {
		t.Errorf("packages = %d, want 6 (paper §2)", got)
	}
}

func TestSampleUsersDistribution(t *testing.T) {
	users := SampleUsers(30, 1)
	if len(users) != 30 {
		t.Fatalf("users = %d", len(users))
	}
	sqlHigh, pyHigh := 0, 0
	for _, u := range users {
		if u.SQLSkill < 1 || u.SQLSkill > 5 || u.PythonSkill < 1 || u.PythonSkill > 5 {
			t.Fatalf("skills out of scale: %+v", u)
		}
		if u.SQLSkill >= 4 {
			sqlHigh++
		}
		if u.PythonSkill >= 4 {
			pyHigh++
		}
	}
	// Paper: 25/30 know SQL well, 14/30 know Python well — the sample must
	// preserve the ordering and rough magnitudes.
	if sqlHigh <= pyHigh {
		t.Errorf("SQL-skilled (%d) should outnumber Python-skilled (%d)", sqlHigh, pyHigh)
	}
	if sqlHigh < 18 {
		t.Errorf("SQL-skilled = %d, want most of 30", sqlHigh)
	}
}

func TestSampleUsersDeterministic(t *testing.T) {
	a := SampleUsers(5, 7)
	b := SampleUsers(5, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same users")
		}
	}
}

func TestDevelopmentTimeOrdering(t *testing.T) {
	u := User{SQLSkill: 4, PythonSkill: 3, DomainSkill: 2}
	pt := DevelopmentTime(u, "python")
	gt := DevelopmentTime(u, "pgfmu")
	if gt >= pt {
		t.Errorf("pgfmu time (%v) must be below python time (%v)", gt, pt)
	}
	if math.IsNaN(DevelopmentTime(u, "nope")) == false {
		t.Error("unknown stack should return NaN")
	}
	// A Python expert is faster in Python than a novice.
	expert := DevelopmentTime(User{SQLSkill: 3, PythonSkill: 5, DomainSkill: 3}, "python")
	novice := DevelopmentTime(User{SQLSkill: 3, PythonSkill: 1, DomainSkill: 3}, "python")
	if expert >= novice {
		t.Errorf("expert (%v) should beat novice (%v)", expert, novice)
	}
}

func TestRunStudyReproducesPaperShape(t *testing.T) {
	res := RunStudy(30, 1)
	// The paper reports an 11.74x mean development-time advantage; the shape
	// requirement is an order-of-magnitude gap.
	if res.Speedup < 8 || res.Speedup > 16 {
		t.Errorf("speedup = %v, want order-of-magnitude (8–16x, paper 11.74x)", res.Speedup)
	}
	// pgFMU completion times land in/near the observed 9.6–17.6 min band.
	for _, v := range res.PgFMUTimes {
		if v < 5 || v > 30 {
			t.Errorf("pgfmu time %v min outside plausible band", v)
		}
	}
	// The paper: all participants but one finished within the 3-hour session.
	// Allow the simulated cohort a couple of non-finishers.
	over := 0
	for _, v := range res.PythonTimes {
		if v > 180 {
			over++
		}
	}
	if over > 2 {
		t.Errorf("%d users exceed the 3-hour session; paper had 1 of 30", over)
	}
	if res.MeanPgFMU >= res.MeanPython {
		t.Error("mean ordering violated")
	}
}
