package dataset

import (
	"math"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/timeseries"
)

func TestGenerateHP1Shape(t *testing.T) {
	f, err := GenerateHP1(Config{Hours: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 49 {
		t.Errorf("rows = %d, want 49", f.Len())
	}
	for _, c := range []string{"x", "y", "u"} {
		if !f.HasColumn(c) {
			t.Errorf("missing column %s", c)
		}
	}
	// Input stays within [0, 1].
	for _, v := range f.Data["u"] {
		if v < 0 || v > 1 {
			t.Errorf("u = %v out of range", v)
		}
	}
	// Indoor temperatures stay physically plausible.
	for _, v := range f.Data["x"] {
		if v < -30 || v > 60 {
			t.Errorf("x = %v implausible", v)
		}
	}
}

func TestGenerateHP0Shape(t *testing.T) {
	f, err := GenerateHP0(Config{Hours: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if f.HasColumn("u") {
		t.Error("HP0 must have no input column")
	}
	// y is constant: P * 0.0138.
	want := 7.8 * 0.0138
	for _, v := range f.Data["y"] {
		if math.Abs(v-want) > 1e-9 {
			t.Errorf("y = %v, want %v", v, want)
		}
	}
}

func TestGenerateClassroomShape(t *testing.T) {
	f, err := GenerateClassroom(Config{Hours: 72, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"t", "solrad", "tout", "occ", "dpos", "vpos"} {
		if !f.HasColumn(c) {
			t.Errorf("missing column %s", c)
		}
	}
	// Solar radiation zero at night (hour 0–6).
	for i, tm := range f.Times {
		h := math.Mod(tm, 24)
		if h < 6 && f.Data["solrad"][i] != 0 {
			t.Errorf("solrad at night (h=%v) = %v", h, f.Data["solrad"][i])
		}
		if f.Data["occ"][i] < 0 {
			t.Errorf("negative occupancy %v", f.Data["occ"][i])
		}
	}
}

func TestGenerateDeterministicSeed(t *testing.T) {
	a, err := GenerateHP1(Config{Hours: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateHP1(Config{Hours: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data["x"] {
		if a.Data["x"][i] != b.Data["x"][i] {
			t.Fatal("same seed must generate identical data")
		}
	}
	c, err := GenerateHP1(Config{Hours: 24, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Data["x"] {
		if a.Data["x"][i] != c.Data["x"][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestDeltaScaling(t *testing.T) {
	base, err := GenerateHP1(Config{Hours: 24, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := GenerateHP1(Config{Hours: 24, Seed: 4, Delta: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	bx, _ := base.Series("x")
	sx, _ := scaled.Series("x")
	d, err := timeseries.RelativeL2Distance(bx, sx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.2) > 1e-9 {
		t.Errorf("delta=1.2 relative distance = %v, want 0.2", d)
	}
}

func TestGenerateDispatch(t *testing.T) {
	for _, m := range []string{"hp0", "hp1", "classroom"} {
		f, err := Generate(m, Config{Hours: 24, Seed: 2})
		if err != nil || f.Len() == 0 {
			t.Errorf("Generate(%s): %v", m, err)
		}
		if _, err := Source(m); err != nil {
			t.Errorf("Source(%s): %v", m, err)
		}
		if _, err := MeasuredColumn(m); err != nil {
			t.Errorf("MeasuredColumn(%s): %v", m, err)
		}
		if _, err := EstimatedParameters(m); err != nil {
			t.Errorf("EstimatedParameters(%s): %v", m, err)
		}
	}
	if _, err := Generate("zzz", Config{}); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := Source("zzz"); err == nil {
		t.Error("unknown source should fail")
	}
	if _, err := MeasuredColumn("zzz"); err == nil {
		t.Error("unknown measured column should fail")
	}
	if _, err := EstimatedParameters("zzz"); err == nil {
		t.Error("unknown parameters should fail")
	}
}

func TestLoadFrame(t *testing.T) {
	db := sqldb.New()
	f, err := GenerateHP1(Config{Hours: 24, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadFrame(db, "measurements", f); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT count(*) FROM measurements`)
	if err != nil || rs.Rows[0][0].Int() != 25 {
		t.Errorf("loaded rows = %v, %v", rs, err)
	}
	// Reloading replaces.
	if err := LoadFrame(db, "measurements", f); err != nil {
		t.Fatal(err)
	}
	rs, _ = db.Query(`SELECT count(*) FROM measurements`)
	if rs.Rows[0][0].Int() != 25 {
		t.Error("LoadFrame should replace, not append")
	}
}

func TestMIDeltas(t *testing.T) {
	d := MIDeltas(5)
	if d[0] != 1 {
		t.Errorf("first delta = %v, want 1 (the MI reference dataset)", d[0])
	}
	if math.Abs(d[1]-0.81) > 1e-12 || math.Abs(d[4]-1.19) > 1e-12 {
		t.Errorf("deltas = %v", d)
	}
	// Every non-reference delta stays strictly inside the 20% gate.
	for _, v := range d[1:] {
		if math.Abs(v-1) >= 0.2 {
			t.Errorf("delta %v outside the similarity gate", v)
		}
	}
	if one := MIDeltas(1); one[0] != 1 {
		t.Errorf("single delta = %v", one)
	}
	if two := MIDeltas(2); two[0] != 1 || two[1] != 1.19 {
		t.Errorf("two deltas = %v", two)
	}
}

func TestTruthValuesMatchTable7(t *testing.T) {
	// Guard: the ground-truth parameters must stay pinned to the values the
	// paper's Table 7 reports, which docs/reproduction.md lists as the
	// generators' truth.
	if TruthHP0["Cp"] != 1.53 || TruthHP0["R"] != 1.51 {
		t.Errorf("HP0 truth = %v", TruthHP0)
	}
	if TruthHP1["Cp"] != 1.49 || TruthHP1["R"] != 1.481 {
		t.Errorf("HP1 truth = %v", TruthHP1)
	}
	if TruthClassroom["RExt"] != 4 || TruthClassroom["tmass"] != 50 {
		t.Errorf("classroom truth = %v", TruthClassroom)
	}
}
