package modelica

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// hp1Source is the paper's Figure 2 heat pump LTI SISO model.
const hp1Source = `
model heatpump "HP1 running example"
  parameter Real A = -0.4444 (min=-10, max=10);
  parameter Real B = 13.78 (min=-20, max=20);
  parameter Real C = 7.8;
  parameter Real D = 0;
  parameter Real E = 4.4444;
  input Real u(start=0, min=0, max=1) "HP power rating";
  Real x(start=20.0) "indoor temperature";
  output Real y "HP power consumption";
equation
  der(x) = A*x + B*u + E;
  y = C*u + D*x;
end heatpump;
`

func TestLexBasics(t *testing.T) {
	toks, err := lexAll("model m Real x; end m;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokKeyword, tokIdent, tokKeyword, tokIdent, tokSymbol, tokKeyword, tokIdent, tokSymbol, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v (%s), want kind %v", i, toks[i], toks[i].kind, k)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := `model m // line comment
/* block
comment */ Real x(start=1); equation der(x)=1; end m;`
	if _, err := ParseModel(src); err != nil {
		t.Fatalf("comments should lex away: %v", err)
	}
	if _, err := lexAll("/* unterminated"); err == nil {
		t.Error("unterminated block comment should fail")
	}
	if _, err := lexAll(`"unterminated`); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := lexAll("model @"); err == nil {
		t.Error("illegal character should fail")
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]float64{
		"42":     42,
		"4.25":   4.25,
		"1e3":    1000,
		"2.5e-2": 0.025,
		"1E+2":   100,
		".5":     0.5,
	}
	for src, want := range cases {
		e, err := ParseExpression(src)
		if err != nil {
			t.Errorf("ParseExpression(%q): %v", src, err)
			continue
		}
		got, err := evalBoth(e, MapEnv{})
		if err != nil || got != want {
			t.Errorf("Eval(%q) = %v, %v; want %v", src, got, err, want)
		}
	}
}

func TestExpressionPrecedence(t *testing.T) {
	cases := map[string]float64{
		"1+2*3":     7,
		"(1+2)*3":   9,
		"2^3^2":     512, // right associative
		"-2^2":      -4,  // unary binds looser than ^
		"2*-3":      -6,
		"10-4-3":    3, // left associative
		"12/4/3":    1,
		"1 < 2":     1,
		"2 <= 1":    0,
		"3 == 3":    1,
		"3 <> 3":    0,
		"min(3, 5)": 3,
		"max(3, 5)": 5,
		"abs(-4)":   4,
		"sqrt(9)":   3,
		"+5":        5,
	}
	for src, want := range cases {
		e, err := ParseExpression(src)
		if err != nil {
			t.Errorf("ParseExpression(%q): %v", src, err)
			continue
		}
		got, err := evalBoth(e, MapEnv{})
		if err != nil {
			t.Errorf("Eval(%q): %v", src, err)
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Eval(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestExpressionFunctions(t *testing.T) {
	env := MapEnv{"x": 2}
	cases := map[string]float64{
		"sin(0)":      0,
		"cos(0)":      1,
		"exp(0)":      1,
		"log(exp(1))": 1,
		"tanh(0)":     0,
		"sign(-3)":    -1,
		"sign(0)":     0,
		"sign(2)":     1,
		"floor(2.7)":  2,
		"ceil(2.1)":   3,
		"atan2(0, 1)": 0,
		"mod(7, 3)":   1,
		"x^2 + 1":     5,
	}
	for src, want := range cases {
		e, err := ParseExpression(src)
		if err != nil {
			t.Errorf("ParseExpression(%q): %v", src, err)
			continue
		}
		got, err := evalBoth(e, env)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("Eval(%q) = %v, %v; want %v", src, got, err, want)
		}
	}
}

func TestExpressionEvalErrors(t *testing.T) {
	cases := []string{
		"unknownVar",
		"unknownFn(1)",
		"1/0",
		"sin(1, 2)",
		"min(1)",
		"der(x)",
	}
	for _, src := range cases {
		e, err := ParseExpression(src)
		if err != nil {
			t.Errorf("ParseExpression(%q) should parse: %v", src, err)
			continue
		}
		if _, err := evalBoth(e, MapEnv{"x": 1}); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestExpressionParseErrors(t *testing.T) {
	cases := []string{
		"",
		"1 +",
		"(1",
		"foo(1,",
		"1 2",
		"* 3",
	}
	for _, src := range cases {
		if _, err := ParseExpression(src); err == nil {
			t.Errorf("ParseExpression(%q) should fail", src)
		}
	}
}

func TestExpressionStringRoundTrip(t *testing.T) {
	sources := []string{
		"A*x + B*u + E",
		"-(x + 1) * 2 ^ (0 - 2)",
		"min(max(x, 0), 1) + sin(time)",
		"(a <= b) * c",
	}
	env := MapEnv{"A": 1.5, "x": 2, "B": -1, "u": 0.5, "E": 3, "a": 1, "b": 2, "c": 4, "time": 0.7}
	for _, src := range sources {
		e1, err := ParseExpression(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		e2, err := ParseExpression(e1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", e1.String(), err)
		}
		v1, err1 := evalBoth(e1, env)
		v2, err2 := evalBoth(e2, env)
		if err1 != nil || err2 != nil || math.Abs(v1-v2) > 1e-12 {
			t.Errorf("round trip of %q changed value: %v vs %v", src, v1, v2)
		}
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	// Property: rendering then reparsing preserves evaluation for random
	// linear expressions a*x + b.
	f := func(a, b, x float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) ||
			math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		e := &Binary{Op: "+", L: &Binary{Op: "*", L: &Number{Value: a}, R: &Ident{Name: "x"}}, R: &Number{Value: b}}
		e2, err := ParseExpression(e.String())
		if err != nil {
			return false
		}
		v1, err1 := evalBoth(e, MapEnv{"x": x})
		v2, err2 := evalBoth(e2, MapEnv{"x": x})
		if err1 != nil || err2 != nil {
			return false
		}
		return (math.IsNaN(v1) && math.IsNaN(v2)) || v1 == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreeVars(t *testing.T) {
	e := mustParseExpression("A*x + B*u + sin(time) + A")
	got := FreeVars(e)
	want := []string{"A", "B", "time", "u", "x"}
	if len(got) != len(want) {
		t.Fatalf("FreeVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeVars = %v, want %v", got, want)
		}
	}
}

func TestParseHP1Model(t *testing.T) {
	raw, err := ParseModel(hp1Source)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Name != "heatpump" {
		t.Errorf("name = %q", raw.Name)
	}
	if len(raw.Components) != 8 {
		t.Errorf("components = %d, want 8", len(raw.Components))
	}
	if len(raw.Equations) != 2 {
		t.Errorf("equations = %d, want 2", len(raw.Equations))
	}
}

func TestAnalyzeHP1Model(t *testing.T) {
	m, err := Compile(hp1Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parameters) != 5 {
		t.Errorf("parameters = %d, want 5", len(m.Parameters))
	}
	a, ok := m.Parameter("A")
	if !ok || a.Default != -0.4444 || a.Min != -10 || a.Max != 10 {
		t.Errorf("parameter A = %+v", a)
	}
	if len(m.Inputs) != 1 || m.Inputs[0].Name != "u" || m.Inputs[0].Start != 0 {
		t.Errorf("inputs = %+v", m.Inputs)
	}
	if len(m.States) != 1 || m.States[0].Name != "x" || m.States[0].Start != 20 {
		t.Errorf("states = %+v", m.States)
	}
	if len(m.Outputs) != 1 || m.Outputs[0].Name != "y" {
		t.Errorf("outputs = %+v", m.Outputs)
	}
	// Derivative evaluates correctly.
	env := MapEnv{"A": -0.5, "B": 13, "E": 4, "x": 20, "u": 0.5, "time": 0}
	v, err := evalBoth(m.States[0].Derivative, env)
	if err != nil {
		t.Fatal(err)
	}
	want := -0.5*20 + 13*0.5 + 4
	if math.Abs(v-want) > 1e-12 {
		t.Errorf("der(x) = %v, want %v", v, want)
	}
	names := m.ParameterNames()
	if len(names) != 5 || names[0] != "A" || names[4] != "E" {
		t.Errorf("ParameterNames = %v", names)
	}
	if _, ok := m.Parameter("missing"); ok {
		t.Error("Parameter(missing) should report not found")
	}
}

func TestAnalyzeAlgebraicInlining(t *testing.T) {
	src := `
model inlined
  parameter Real k = 2;
  Real helper;
  Real x(start=1);
equation
  helper = k * 3;
  der(x) = helper + x;
end inlined;
`
	m, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	v, err := evalBoth(m.States[0].Derivative, MapEnv{"k": 2, "x": 1})
	if err != nil || v != 7 {
		t.Errorf("inlined derivative = %v, %v; want 7", v, err)
	}
}

func TestAnalyzeOutputAsState(t *testing.T) {
	// HP0-style: the observable temperature is itself a state.
	src := `
model hp0
  parameter Real a = -1;
  output Real x(start=20);
equation
  der(x) = a * x;
end hp0;
`
	m, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.States) != 1 || m.States[0].Name != "x" {
		t.Fatalf("states = %+v", m.States)
	}
	if len(m.Outputs) != 1 || m.Outputs[0].Name != "x" {
		t.Fatalf("outputs = %+v", m.Outputs)
	}
	v, err := evalBoth(m.Outputs[0].Expr, MapEnv{"x": 17})
	if err != nil || v != 17 {
		t.Errorf("identity output = %v, %v", v, err)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"duplicate decl", "model m Real x(start=1); Real x; equation der(x)=1; end m;"},
		{"reserved time", "model m Real time; Real x(start=0); equation der(x)=1; time=2; end m;"},
		{"no states", "model m parameter Real p = 1; output Real y; equation y = p; end m;"},
		{"undeclared der", "model m Real x(start=0); equation der(z)=1; der(x)=1; end m;"},
		{"der of parameter", "model m parameter Real p=1; Real x(start=0); equation der(p)=1; der(x)=1; end m;"},
		{"duplicate der", "model m Real x(start=0); equation der(x)=1; der(x)=2; end m;"},
		{"assign input", "model m input Real u; Real x(start=0); equation u=1; der(x)=1; end m;"},
		{"undeclared lhs", "model m Real x(start=0); equation z=1; der(x)=1; end m;"},
		{"duplicate def", "model m Real x(start=0); output Real y; equation y=1; y=2; der(x)=1; end m;"},
		{"no equation for local", "model m Real x(start=0); Real z; equation der(x)=1; end m;"},
		{"no equation for output", "model m Real x(start=0); output Real y; equation der(x)=1; end m;"},
		{"both der and def", "model m Real x(start=0); equation der(x)=1; x=2; end m;"},
		{"unknown rhs var", "model m Real x(start=0); equation der(x)=q; end m;"},
		{"algebraic cycle", "model m Real a; Real b; Real x(start=0); equation a=b; b=a; der(x)=a; end m;"},
		{"lhs is call", "model m Real x(start=0); equation sin(x)=1; der(x)=1; end m;"},
		{"lhs is number", "model m Real x(start=0); equation 1=2; der(x)=1; end m;"},
		{"der multiple args", "model m Real x(start=0); equation der(x, x)=1; end m;"},
		{"der of expr", "model m Real x(start=0); equation der(x+1)=1; end m;"},
	}
	for _, c := range cases {
		if _, err := Compile(c.src); err == nil {
			t.Errorf("%s: Compile should fail", c.name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing model kw", "Real x;"},
		{"end name mismatch", "model m Real x(start=0); equation der(x)=1; end other;"},
		{"missing semicolon", "model m Real x(start=0) equation der(x)=1; end m;"},
		{"bad attribute", "model m Real x(color=1); equation der(x)=1; end m;"},
		{"non-constant attr", "model m Real x(start=y); equation der(x)=1; end m;"},
		{"non-constant binding", "model m parameter Real p = q; Real x(start=0); equation der(x)=1; end m;"},
		{"missing end semicolon", "model m Real x(start=0); equation der(x)=1; end m"},
		{"trailing garbage", "model m Real x(start=0); equation der(x)=1; end m; extra"},
		{"bad type", "model m parameter Complex c; Real x(start=0); equation der(x)=1; end m;"},
	}
	for _, c := range cases {
		if _, err := ParseModel(c.src); err == nil {
			t.Errorf("%s: ParseModel should fail", c.name)
		}
	}
}

func TestParseMultiDeclaration(t *testing.T) {
	src := `
model multi
  parameter Real a = 1, b = 2;
  Real x(start=0), z(start=5);
equation
  der(x) = a;
  der(z) = b;
end multi;
`
	m, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parameters) != 2 || len(m.States) != 2 {
		t.Errorf("multi-declaration: params=%d states=%d", len(m.Parameters), len(m.States))
	}
}

func TestSyntaxErrorHasPosition(t *testing.T) {
	_, err := ParseModel("model m\n  Real @;\nend m;")
	if err == nil {
		t.Fatal("should fail")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T, want *SyntaxError", err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "2:") {
		t.Errorf("error message should contain position: %s", se.Error())
	}
}

func TestDescriptionStrings(t *testing.T) {
	m, err := Compile(hp1Source)
	if err != nil {
		t.Fatal(err)
	}
	if m.Inputs[0].Description != "HP power rating" {
		t.Errorf("input description = %q", m.Inputs[0].Description)
	}
	if m.States[0].Description != "indoor temperature" {
		t.Errorf("state description = %q", m.States[0].Description)
	}
}

func TestClassroomStyleModel(t *testing.T) {
	// Multi-input thermal network model shaped like the paper's Classroom.
	src := `
model classroom
  parameter Real shgc = 2 (min=0, max=10);
  parameter Real tmass = 40 (min=1, max=100);
  parameter Real RExt = 3 (min=0.1, max=10);
  parameter Real occheff = 1 (min=0, max=5);
  input Real solrad;
  input Real tout;
  input Real occ;
  input Real dpos;
  input Real vpos;
  output Real t(start=21);
equation
  der(t) = (shgc*solrad/1000 + occheff*occ*0.1 + (tout - t)/RExt
            + 2*vpos/100 - 3*dpos/100) / tmass;
end classroom;
`
	m, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Inputs) != 5 || len(m.Parameters) != 4 || len(m.States) != 1 {
		t.Errorf("classroom shape: inputs=%d params=%d states=%d",
			len(m.Inputs), len(m.Parameters), len(m.States))
	}
	env := MapEnv{"shgc": 2, "tmass": 40, "RExt": 3, "occheff": 1,
		"solrad": 500, "tout": 10, "occ": 20, "dpos": 0, "vpos": 0, "t": 21}
	v, err := evalBoth(m.States[0].Derivative, env)
	if err != nil {
		t.Fatal(err)
	}
	want := (2*500/1000.0 + 1*20*0.1 + (10-21)/3.0) / 40
	if math.Abs(v-want) > 1e-12 {
		t.Errorf("classroom der = %v, want %v", v, want)
	}
}
