package fmu

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/solver"
	"repro/internal/timeseries"
)

// hp1Source mirrors the paper's Figure 2 heat pump model. With u == 0 the
// model is x' = A*x + E, whose solution from x0 is
// x(t) = (x0 + E/A) e^{A t} - E/A.
const hp1Source = `
model heatpump
  parameter Real A = -0.4444 (min=-10, max=10);
  parameter Real B = 13.78 (min=-20, max=20);
  parameter Real C = 7.8;
  parameter Real D = 0;
  parameter Real E = 4.4444 (min=-30, max=30);
  input Real u(start=0, min=0, max=1);
  Real x(start=20.0);
  output Real y;
equation
  der(x) = A*x + B*u + E;
  y = C*u + D*x;
end heatpump;
`

func compileHP1(t *testing.T) *Unit {
	t.Helper()
	u, err := CompileModelica(hp1Source)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestCompileModelicaMetadata(t *testing.T) {
	u := compileHP1(t)
	md := u.Description
	if md.ModelName != "heatpump" || md.FMIVersion != "2.0" {
		t.Errorf("metadata = %+v", md)
	}
	if md.GUID != u.GUID {
		t.Error("GUID mismatch between metadata and unit")
	}
	params := md.VariablesByCausality("parameter")
	if len(params) != 5 {
		t.Errorf("parameter variables = %d, want 5", len(params))
	}
	inputs := md.VariablesByCausality("input")
	if len(inputs) != 1 || inputs[0].Name != "u" {
		t.Errorf("input variables = %+v", inputs)
	}
	outputs := md.VariablesByCausality("output")
	if len(outputs) != 1 || outputs[0].Name != "y" {
		t.Errorf("output variables = %+v", outputs)
	}
	locals := md.VariablesByCausality("local")
	if len(locals) != 1 || locals[0].Name != "x" {
		t.Errorf("local (state) variables = %+v", locals)
	}
	a, ok := md.Variable("A")
	if !ok || a.Real == nil || a.Real.Min != "-10" || a.Real.Max != "10" {
		t.Errorf("variable A = %+v", a)
	}
	if _, ok := md.Variable("nope"); ok {
		t.Error("Variable(nope) should not be found")
	}
}

func TestGUIDDeterministic(t *testing.T) {
	u1 := compileHP1(t)
	u2 := compileHP1(t)
	if u1.GUID != u2.GUID {
		t.Error("identical models must have identical GUIDs")
	}
	other, err := CompileModelica(strings.Replace(hp1Source, "13.78", "13.79", 1))
	if err != nil {
		t.Fatal(err)
	}
	if other.GUID == u1.GUID {
		t.Error("different models must have different GUIDs")
	}
	if s := u1.GUID; len(s) != 36 || s[14] != '5' || !strings.ContainsRune("89ab", rune(s[19])) {
		t.Errorf("content GUID %q: want canonical form, version 5, RFC 4122 variant", s)
	}
}

func TestGUIDFromContentDeterministic(t *testing.T) {
	a := contentGUID([]byte("model"))
	b := contentGUID([]byte("model"))
	c := contentGUID([]byte("other"))
	if a != b {
		t.Error("same content should give same GUID")
	}
	if a == c {
		t.Error("different content should give different GUID")
	}
	if a[14] != '5' {
		t.Errorf("content GUID version nibble = %c, want 5", a[14])
	}
}

func TestGUIDParseRoundTrip(t *testing.T) {
	s := contentGUID([]byte("model"))
	got, err := parseGUID(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("parseGUID(%q) = %q", s, got)
	}
}

func TestGUIDParseRoundTripProperty(t *testing.T) {
	f := func(raw [16]byte) bool {
		s := formatGUID(raw[:])
		got, err := parseGUID(s)
		if err != nil || got != s {
			return false
		}
		upper, err := parseGUID(strings.ToUpper(s))
		return err == nil && upper == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGUIDParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"not-a-uuid",
		"12345678-1234-1234-1234-12345678901",   // too short
		"12345678-1234-1234-1234-1234567890123", // too long
		"12345678x1234-1234-1234-123456789012",  // wrong separator
		"zzzzzzzz-1234-1234-1234-123456789012",  // non-hex
	} {
		if _, err := parseGUID(s); err == nil {
			t.Errorf("parseGUID(%q) should fail", s)
		}
	}
}

func TestFMUFileRoundTrip(t *testing.T) {
	u := compileHP1(t)
	path := filepath.Join(t.TempDir(), "hp1.fmu")
	if err := u.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.GUID != u.GUID {
		t.Error("round-trip changed GUID")
	}
	if loaded.Model.Name != "heatpump" {
		t.Errorf("round-trip model name = %q", loaded.Model.Name)
	}
	if len(loaded.Model.Parameters) != 5 || len(loaded.Model.States) != 1 || len(loaded.Model.Outputs) != 1 {
		t.Errorf("round-trip model shape wrong: %+v", loaded.Model)
	}
	a, ok := loaded.Model.Parameter("A")
	if !ok || a.Default != -0.4444 || a.Min != -10 || a.Max != 10 {
		t.Errorf("round-trip parameter A = %+v", a)
	}
	// Simulation through the loaded unit must agree with the original.
	t0, t1 := 0.0, 10.0
	r1, err := u.Instantiate("a").Simulate(nil, t0, t1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.Instantiate("b").Simulate(nil, t0, t1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := r1.Final("x")
	f2, _ := r2.Final("x")
	if math.Abs(f1-f2) > 1e-9 {
		t.Errorf("round-trip simulation diverged: %v vs %v", f1, f2)
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read([]byte("not a zip")); err == nil {
		t.Error("non-zip should fail")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.fmu")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestLoadRejectsForeignZip(t *testing.T) {
	// A zip without our payload must be rejected with a clear error.
	path := filepath.Join(t.TempDir(), "foreign.fmu")
	u := compileHP1(t)
	data, err := u.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Sanity: the real file loads.
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}

func TestInstantiateDefaults(t *testing.T) {
	u := compileHP1(t)
	inst := u.Instantiate("HP1Instance1")
	if inst.Name() != "HP1Instance1" {
		t.Errorf("Name = %q", inst.Name())
	}
	if inst.Unit() != u {
		t.Error("Unit() should return parent")
	}
	v, err := inst.GetReal("A")
	if err != nil || v != -0.4444 {
		t.Errorf("GetReal(A) = %v, %v", v, err)
	}
	v, err = inst.GetReal("x")
	if err != nil || v != 20 {
		t.Errorf("GetReal(x) = %v, %v", v, err)
	}
	v, err = inst.GetReal("u")
	if err != nil || v != 0 {
		t.Errorf("GetReal(u) = %v, %v", v, err)
	}
}

func TestSetGetRealKinds(t *testing.T) {
	inst := compileHP1(t).Instantiate("i")
	if err := inst.SetReal("A", 1.5); err != nil {
		t.Fatal(err)
	}
	if v, _ := inst.GetReal("A"); v != 1.5 {
		t.Error("parameter set/get failed")
	}
	if err := inst.SetReal("x", 18); err != nil {
		t.Fatal(err)
	}
	if v, _ := inst.GetReal("x"); v != 18 {
		t.Error("state initial set/get failed")
	}
	if err := inst.SetReal("u", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := inst.SetReal("y", 1); err == nil {
		t.Error("setting a computed output should fail")
	}
	if err := inst.SetReal("zzz", 1); err == nil {
		t.Error("setting unknown variable should fail")
	}
	if _, err := inst.GetReal("y"); err == nil {
		t.Error("getting a computed output should fail")
	}
	if _, err := inst.GetReal("zzz"); err == nil {
		t.Error("getting unknown variable should fail")
	}
}

func TestKindOf(t *testing.T) {
	inst := compileHP1(t).Instantiate("i")
	cases := map[string]VarKind{
		"A": VarParameter, "u": VarInput, "x": VarState, "y": VarOutput, "q": VarUnknown,
	}
	for name, want := range cases {
		if got := inst.KindOf(name); got != want {
			t.Errorf("KindOf(%s) = %v, want %v", name, got, want)
		}
	}
	for _, k := range []VarKind{VarParameter, VarInput, VarState, VarOutput, VarUnknown} {
		if k.String() == "" {
			t.Error("VarKind.String should never be empty")
		}
	}
}

func TestResetAndClone(t *testing.T) {
	inst := compileHP1(t).Instantiate("orig")
	_ = inst.SetReal("A", 9)
	clone := inst.Clone("copy")
	if v, _ := clone.GetReal("A"); v != 9 {
		t.Error("Clone should carry current values")
	}
	_ = clone.SetReal("A", 7)
	if v, _ := inst.GetReal("A"); v != 9 {
		t.Error("Clone must not alias the original")
	}
	inst.Reset()
	if v, _ := inst.GetReal("A"); v != -0.4444 {
		t.Error("Reset should restore defaults")
	}
}

func TestParametersAndSetParameters(t *testing.T) {
	inst := compileHP1(t).Instantiate("i")
	ps := inst.Parameters()
	if len(ps) != 5 || ps["B"] != 13.78 {
		t.Errorf("Parameters() = %v", ps)
	}
	ps["B"] = 0 // mutation must not leak
	if v, _ := inst.GetReal("B"); v != 13.78 {
		t.Error("Parameters() must return a copy")
	}
	if err := inst.SetParameters(map[string]float64{"A": 1, "B": 2}); err != nil {
		t.Fatal(err)
	}
	if v, _ := inst.GetReal("A"); v != 1 {
		t.Error("SetParameters failed")
	}
	if err := inst.SetParameters(map[string]float64{"x": 1}); err == nil {
		t.Error("SetParameters on non-parameter should fail")
	}
}

func TestSimulateAgainstClosedForm(t *testing.T) {
	// With u=0: x(t) = (x0 + E/A) e^{At} - E/A.
	inst := compileHP1(t).Instantiate("i")
	A, E, x0 := -0.4444, 4.4444, 20.0
	res, err := inst.Simulate(nil, 0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Final("x")
	if err != nil {
		t.Fatal(err)
	}
	want := (x0+E/A)*math.Exp(A*5) - E/A
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("x(5) = %v, want %v", got, want)
	}
	// y = C*u + D*x with u=0 and D=0 is identically 0.
	ys, err := res.Series("y")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ys.Values {
		if v != 0 {
			t.Errorf("y should be 0 with zero input, got %v", v)
		}
	}
}

func TestSimulateWithInputSeries(t *testing.T) {
	inst := compileHP1(t).Instantiate("i")
	// Constant input u=1 via a series: x' = A x + B + E.
	u := timeseries.MustNew([]float64{0, 10}, []float64{1, 1})
	res, err := inst.Simulate(map[string]*timeseries.Series{"u": u}, 0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("x")
	A, B, E, x0 := -0.4444, 13.78, 4.4444, 20.0
	c := (B + E) / A
	want := (x0+c)*math.Exp(A*10) - c
	if math.Abs(got-want) > 1e-5 {
		t.Errorf("x(10) with u=1: got %v, want %v", got, want)
	}
	// y = 7.8 * u = 7.8 everywhere.
	yFinal, _ := res.Final("y")
	if math.Abs(yFinal-7.8) > 1e-9 {
		t.Errorf("y final = %v, want 7.8", yFinal)
	}
}

func TestSimulateOutputGrid(t *testing.T) {
	inst := compileHP1(t).Instantiate("i")
	res, err := inst.Simulate(nil, 0, 10, &SimOptions{OutputStep: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frame.Len() != 5 { // 0, 2.5, 5, 7.5, 10
		t.Errorf("output grid rows = %d, want 5 (times %v)", res.Frame.Len(), res.Frame.Times)
	}
	if last := res.Frame.Times[res.Frame.Len()-1]; last != 10 {
		t.Errorf("last output time = %v, want 10", last)
	}
}

func TestSimulateWithFixedStepSolver(t *testing.T) {
	inst := compileHP1(t).Instantiate("i")
	rk4, err := solver.NewRK4(0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Simulate(nil, 0, 5, &SimOptions{Method: rk4})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("x")
	A, E, x0 := -0.4444, 4.4444, 20.0
	want := (x0+E/A)*math.Exp(A*5) - E/A
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("rk4 x(5) = %v, want %v", got, want)
	}
}

func TestSimulateErrors(t *testing.T) {
	inst := compileHP1(t).Instantiate("i")
	if _, err := inst.Simulate(nil, 5, 5, nil); err == nil {
		t.Error("empty interval should fail")
	}
	if _, err := inst.Simulate(map[string]*timeseries.Series{
		"bogus": timeseries.MustNew([]float64{0}, []float64{0}),
	}, 0, 1, nil); err == nil {
		t.Error("unknown input name should fail")
	}
	if _, err := inst.Simulate(map[string]*timeseries.Series{"u": {}}, 0, 1, nil); err == nil {
		t.Error("empty input series should fail")
	}
}

func TestSimulateMissingInputFails(t *testing.T) {
	// Model with an input that has no start value: simulation without a
	// series must fail with the paper's "insufficient model input" error.
	src := `
model m
  input Real u;
  Real x(start=0);
equation
  der(x) = u;
end m;
`
	u, err := CompileModelica(src)
	if err != nil {
		t.Fatal(err)
	}
	inst := u.Instantiate("i")
	_, err = inst.Simulate(nil, 0, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "insufficient model input") {
		t.Errorf("err = %v, want insufficient-input error", err)
	}
	// With a series it works.
	s := timeseries.MustNew([]float64{0, 1}, []float64{1, 1})
	res, err := inst.Simulate(map[string]*timeseries.Series{"u": s}, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("x")
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("x(1) = %v, want 1", got)
	}
}

func TestSimulateMissingParameterFails(t *testing.T) {
	src := `
model m
  parameter Real k;
  Real x(start=0);
equation
  der(x) = k;
end m;
`
	u, err := CompileModelica(src)
	if err != nil {
		t.Fatal(err)
	}
	inst := u.Instantiate("i")
	if _, err := inst.Simulate(nil, 0, 1, nil); err == nil {
		t.Error("missing parameter value should fail")
	}
	_ = inst.SetReal("k", 2)
	res, err := inst.Simulate(nil, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("x")
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("x(1) = %v, want 2", got)
	}
}

func TestSimulateTimeDependentInput(t *testing.T) {
	// x' = u with u(t) = t (linear ramp series): x(t) = t^2/2.
	src := `
model ramp
  input Real u;
  Real x(start=0);
equation
  der(x) = u;
end ramp;
`
	unit, err := CompileModelica(src)
	if err != nil {
		t.Fatal(err)
	}
	inst := unit.Instantiate("i")
	u := timeseries.Uniform(0, 0.5, 9, func(t float64) float64 { return t })
	res, err := inst.Simulate(map[string]*timeseries.Series{"u": u}, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("x")
	if math.Abs(got-8) > 1e-6 {
		t.Errorf("x(4) = %v, want 8", got)
	}
}

func TestSimulateTimeBuiltin(t *testing.T) {
	// der(x) = time gives x(t) = t^2/2 with no inputs at all.
	src := `
model tt
  Real x(start=0);
equation
  der(x) = time;
end tt;
`
	unit, err := CompileModelica(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := unit.Instantiate("i").Simulate(nil, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("x")
	if math.Abs(got-4.5) > 1e-7 {
		t.Errorf("x(3) = %v, want 4.5", got)
	}
}

func TestDefaultIntervalAndStep(t *testing.T) {
	u := compileHP1(t)
	t0, t1, err := u.DefaultInterval()
	if err != nil || t0 != 0 || t1 != 86400 {
		t.Errorf("DefaultInterval = %v, %v, %v", t0, t1, err)
	}
	step, err := u.DefaultStep()
	if err != nil || step != 3600 {
		t.Errorf("DefaultStep = %v, %v", step, err)
	}
}

func TestResultVariables(t *testing.T) {
	inst := compileHP1(t).Instantiate("i")
	vars := inst.ResultVariables()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("ResultVariables = %v", vars)
	}
}

func TestFinalAndSeriesErrors(t *testing.T) {
	inst := compileHP1(t).Instantiate("i")
	res, err := inst.Simulate(nil, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Series("nope"); err == nil {
		t.Error("Series(nope) should fail")
	}
	if _, err := res.Final("nope"); err == nil {
		t.Error("Final(nope) should fail")
	}
}

func TestDecodeModelDescriptionErrors(t *testing.T) {
	cases := []string{
		"not xml at all <",
		`<fmiModelDescription fmiVersion="2.0" guid="g"/>`,      // missing modelName
		`<fmiModelDescription fmiVersion="2.0" modelName="m"/>`, // missing guid
		`<fmiModelDescription modelName="m" guid="g"><ModelVariables><ScalarVariable name="a" valueReference="0"/><ScalarVariable name="a" valueReference="1"/></ModelVariables></fmiModelDescription>`, // dup var
		`<fmiModelDescription modelName="m" guid="g"><ModelVariables><ScalarVariable valueReference="0"/></ModelVariables></fmiModelDescription>`,                                                       // unnamed var
	}
	for _, src := range cases {
		if _, err := DecodeModelDescription([]byte(src)); err == nil {
			t.Errorf("DecodeModelDescription(%q) should fail", src)
		}
	}
}

func TestHoldInterpolationInput(t *testing.T) {
	src := `
model hold
  input Real u;
  Real x(start=0);
equation
  der(x) = u;
end hold;
`
	unit, err := CompileModelica(src)
	if err != nil {
		t.Fatal(err)
	}
	// Step input: u=0 for t<1, u=2 for t>=1 under Hold.
	u := timeseries.MustNew([]float64{0, 1}, []float64{0, 2})
	res, err := unit.Instantiate("i").Simulate(
		map[string]*timeseries.Series{"u": u}, 0, 2,
		&SimOptions{InputInterpolation: timeseries.Hold})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Final("x")
	if math.Abs(got-2) > 1e-4 {
		t.Errorf("hold-input x(2) = %v, want 2", got)
	}
}

// TestUniformGridPointCount: a window that is a whole number of steps only up
// to rounding gets exactly that many steps — accumulating t += step used to
// land an ulp short of t1 and then append t1 again (26 points on 23 h).
func TestUniformGridPointCount(t *testing.T) {
	cases := []struct {
		t0, t1, step float64
		want         int
	}{
		{0, 23, 23.0 / 24, 25},
		{0, 7, 0.1, 71},
		{0, 1, 1.0 / 3, 4},
		{0, 2, 1.0 / 3, 7},
		{5, 6, 1.0 / 3, 4},
		{0, 24, 1, 25},
		{0, 1, 0.3, 5}, // 0, 0.3, 0.6, 0.9 and the stop time
		{0, 1, 5, 2},   // a step wider than the window
		{0, 1, math.Inf(1), 2},
	}
	for _, c := range cases {
		grid, err := uniformGrid(c.t0, c.t1, c.step)
		if err != nil {
			t.Fatal(err)
		}
		if len(grid) != c.want || grid[0] != c.t0 || grid[len(grid)-1] != c.t1 {
			t.Errorf("uniformGrid(%v, %v, %v): %d points %v..%v, want %d from t0 to t1",
				c.t0, c.t1, c.step, len(grid), grid[0], grid[len(grid)-1], c.want)
		}
		for i := 1; i < len(grid); i++ {
			if grid[i] <= grid[i-1] {
				t.Errorf("uniformGrid(%v, %v, %v): point %d not after point %d", c.t0, c.t1, c.step, i, i-1)
			}
		}
		if c.step > c.t1-c.t0 {
			continue
		}
		res, err := compileHP1(t).Instantiate("i").Simulate(nil, c.t0, c.t1, &SimOptions{OutputStep: c.step})
		if err != nil {
			t.Fatal(err)
		}
		if res.Frame.Len() != c.want {
			t.Errorf("Simulate over [%v, %v] step %v: %d rows, want %d", c.t0, c.t1, c.step, res.Frame.Len(), c.want)
		}
	}
	if _, err := uniformGrid(0, 1, 1e-300); err == nil {
		t.Error("a grid of 1e300 points should be refused")
	}
}

// TestUnknownFunctionRejectedAtCompile: an equation that cannot be evaluated
// fails CompileModelica (and Read), not the first Simulate.
func TestUnknownFunctionRejectedAtCompile(t *testing.T) {
	src := strings.Replace(hp1Source, "A*x + B*u + E", "A*x + frobnicate(u) + E", 1)
	if _, err := CompileModelica(src); err == nil || !strings.Contains(err.Error(), `unknown function "frobnicate"`) {
		t.Errorf("CompileModelica: %v, want unknown function", err)
	}
	src = strings.Replace(hp1Source, "C*u + D*x", "min(u)", 1)
	if _, err := CompileModelica(src); err == nil || !strings.Contains(err.Error(), "min expects 2 arguments") {
		t.Errorf("CompileModelica: %v, want an arity error", err)
	}
}

// TestDivisionByZeroAtRunTime: the one error a compiled equation can still
// raise keeps its message, whether the zero divisor is a parameter-only
// subtree (evaluated once per simulation) or depends on the state.
func TestDivisionByZeroAtRunTime(t *testing.T) {
	for _, eq := range []string{"A*x + B*u + E/(C - C)", "A*x + B*u + E/(x - x)"} {
		u, err := CompileModelica(strings.Replace(hp1Source, "A*x + B*u + E", eq, 1))
		if err != nil {
			t.Fatal(err)
		}
		_, err = u.Instantiate("i").Simulate(nil, 0, 1, nil)
		want := "fmu: simulating heatpump: solver: RHS at t=0: evaluating der(x): modelica: division by zero"
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", eq, err, want)
		}
	}
	u, err := CompileModelica(strings.Replace(hp1Source, "C*u + D*x", "C*u/(D*x)", 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = u.Instantiate("i").Simulate(nil, 0, 1, nil)
	if err == nil || err.Error() != "fmu: evaluating output y at t=0: modelica: division by zero" {
		t.Errorf("output: error %v", err)
	}
}
