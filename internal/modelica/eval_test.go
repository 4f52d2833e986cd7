package modelica

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// MapEnv gives identifier values to the reference evaluator.
type MapEnv map[string]float64

// refEval is the tree-walking evaluator the engine used before expressions
// were compiled (Expr.Eval over a map environment, verbatim). It survives
// here as the oracle the compiled programs are compared with.
func refEval(e Expr, env MapEnv) (float64, error) {
	switch x := e.(type) {
	case *Number:
		return x.Value, nil
	case *Ident:
		if v, ok := env[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("modelica: unknown identifier %q", x.Name)
	case *Unary:
		v, err := refEval(x.X, env)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "+":
			return v, nil
		default:
			return 0, fmt.Errorf("modelica: unknown unary operator %q", x.Op)
		}
	case *Binary:
		l, err := refEval(x.L, env)
		if err != nil {
			return 0, err
		}
		r, err := refEval(x.R, env)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("modelica: division by zero")
			}
			return l / r, nil
		case "^":
			return math.Pow(l, r), nil
		case "<":
			return boolVal(l < r), nil
		case ">":
			return boolVal(l > r), nil
		case "<=":
			return boolVal(l <= r), nil
		case ">=":
			return boolVal(l >= r), nil
		case "==":
			return boolVal(l == r), nil
		case "<>":
			return boolVal(l != r), nil
		default:
			return 0, fmt.Errorf("modelica: unknown binary operator %q", x.Op)
		}
	case *Call:
		if x.Fn == "der" {
			return 0, fmt.Errorf("modelica: der() may only appear on the left-hand side of an equation")
		}
		if f, ok := builtin1[x.Fn]; ok {
			if len(x.Args) != 1 {
				return 0, fmt.Errorf("modelica: %s expects 1 argument, got %d", x.Fn, len(x.Args))
			}
			v, err := refEval(x.Args[0], env)
			if err != nil {
				return 0, err
			}
			return f(v), nil
		}
		if f, ok := builtin2[x.Fn]; ok {
			if len(x.Args) != 2 {
				return 0, fmt.Errorf("modelica: %s expects 2 arguments, got %d", x.Fn, len(x.Args))
			}
			a, err := refEval(x.Args[0], env)
			if err != nil {
				return 0, err
			}
			b, err := refEval(x.Args[1], env)
			if err != nil {
				return 0, err
			}
			return f(a, b), nil
		}
		return 0, fmt.Errorf("modelica: unknown function %q", x.Fn)
	}
	return 0, fmt.Errorf("modelica: unsupported expression node %T", e)
}

// evalCompiled compiles e over one slot per env entry and runs it. Names
// starting with an upper-case letter are compiled as parameters, so that
// both halves of a program (setup and body) are exercised.
func evalCompiled(e Expr, env MapEnv) (float64, error) {
	names := make([]string, 0, len(env))
	for name := range env {
		names = append(names, name)
	}
	sort.Strings(names)
	var c compiler
	for _, name := range names {
		if err := c.slot(name, name[0] >= 'A' && name[0] <= 'Z'); err != nil {
			return 0, err
		}
	}
	p, err := c.compile(e)
	if err != nil {
		return 0, err
	}
	regs := append([]float64(nil), c.init...)
	for _, name := range names {
		regs[c.slots[name]] = env[name]
	}
	bindErr := p.Bind(regs)
	v, err := p.Run(regs)
	if err == nil {
		err = bindErr
	}
	if err != nil {
		return 0, err
	}
	return v, nil
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// evalBoth evaluates e with the compiled program and with the reference
// evaluator and panics unless they agree to the bit and on whether they
// fail; tests use it wherever they used to call Expr.Eval.
func evalBoth(e Expr, env MapEnv) (float64, error) {
	want, wantErr := refEval(e, env)
	got, err := evalCompiled(e, env)
	if (err == nil) != (wantErr == nil) || (err == nil && !sameBits(got, want)) {
		panic(fmt.Sprintf("compiled %s = %v, %v; reference = %v, %v", e, got, err, want, wantErr))
	}
	return got, err
}

// fuzzEnv is the fixed set of names fuzzed expressions may use; P, Q and R
// are parameters (invariant), the rest vary per evaluation.
var fuzzNames = []string{"P", "Q", "R", "time", "u", "x", "y"}

// FuzzCompileExpr: for any source text, parsing and compiling never panic;
// when both succeed, the program agrees with the reference evaluator to the
// bit (NaN-aware) and on error/no error over random slot values; when
// compiling fails, so does the reference.
func FuzzCompileExpr(f *testing.F) {
	for _, src := range []string{
		"P*x + Q*u + R",
		"-(1/(R*P))*x + (P*Q/R)*u + y/(R*P)",
		"(P*u/1000 + Q*y*0.1 + (time - x)/R + 8*u/100 - 12*y/100*(x - time)/10) / P * 10",
		"-x^2^-y", "+x - -y", "2^3^2", "(x < y) + (x > y) + (x <= y) + (x >= y) + (x == y) + (x <> y)",
		"sin(x)+cos(x)+tan(x)+asin(u)+acos(u)+atan(x)+sinh(x)+cosh(x)+tanh(x)",
		"exp(x)+log(x)+log10(x)+sqrt(x)+abs(x)+sign(x)+floor(x)+ceil(x)",
		"min(x, y) + max(P, Q) + atan2(x, y) + mod(x, y)",
		"min(max(x, 0), 1) + sin(time)", "sqrt(-1) + log(0)",
		"1/0", "x/(y - y)", "P/(Q - Q)", "1/(x - x) + nope", "1e308*10 - 1e308*10",
		"nope", "nope(1)", "sin(1, 2)", "min(1)", "der(x)", "sin()", "x y", "((x)", "",
		"1.5e-3 + .5 + 1E+2", "((((((((((x))))))))))", strings.Repeat("-", 600) + "x",
		strings.Repeat("(", 600) + "x" + strings.Repeat(")", 600),
	} {
		f.Add(src, int64(1))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		e, err := ParseExpression(src)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			env := make(MapEnv, len(fuzzNames))
			for _, name := range fuzzNames {
				switch rng.Intn(8) {
				case 0:
					env[name] = 0
				case 1:
					env[name] = float64(rng.Intn(5) - 2)
				default:
					env[name] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				}
			}
			want, wantErr := refEval(e, env)
			got, err := evalCompiled(e, env)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%q over %v: compiled error %v, reference error %v", src, env, err, wantErr)
			}
			if err == nil && !sameBits(got, want) {
				t.Fatalf("%q over %v: compiled %v (%016x), reference %v (%016x)", src, env,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

func TestKernelLayoutAndHoisting(t *testing.T) {
	m, err := Compile(hp1Source)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(m)
	if err != nil {
		t.Fatal(err)
	}
	if k.ParamSlot != 1 || k.InputSlot != 1+len(m.Parameters) || k.StateSlot != k.InputSlot+len(m.Inputs) {
		t.Fatalf("slot layout %d/%d/%d for %d parameters, %d inputs", k.ParamSlot, k.InputSlot, k.StateSlot,
			len(m.Parameters), len(m.Inputs))
	}
	if len(k.Derivatives) != len(m.States) || len(k.Outputs) != len(m.Outputs) {
		t.Fatalf("%d derivative and %d output programs", len(k.Derivatives), len(k.Outputs))
	}
	// der(x) = A*x + B*u + E has no parameter-only subtree: four body
	// instructions, no setup.
	if d := k.Derivatives[0]; len(d.setup) != 0 || len(d.body) != 4 {
		t.Errorf("der(x): %d setup + %d body instructions, want 0 + 4", len(d.setup), len(d.body))
	}

	regs := k.NewRegisters()
	env := MapEnv{"A": -0.5, "B": 13, "C": 7.8, "D": 0, "E": 4, "u": 0.5, "x": 20, "time": 3}
	for i, p := range m.Parameters {
		regs[k.ParamSlot+i] = env[p.Name]
	}
	regs[TimeSlot], regs[k.InputSlot], regs[k.StateSlot] = env["time"], env["u"], env["x"]
	for i := range k.Derivatives {
		if err := k.Derivatives[i].Bind(regs); err != nil {
			t.Fatal(err)
		}
		got, err := k.Derivatives[i].Run(regs)
		want, wantErr := refEval(m.States[i].Derivative, env)
		if err != nil || wantErr != nil || !sameBits(got, want) {
			t.Errorf("der(%s) = %v, %v; reference %v, %v", m.States[i].Name, got, err, want, wantErr)
		}
	}

	// Parameter-only subtrees move to setup and are not recomputed by Run.
	var c compiler
	for _, s := range []struct {
		name      string
		invariant bool
	}{{"R", true}, {"Cp", true}, {"x", false}} {
		if err := c.slot(s.name, s.invariant); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.compile(mustParseExpression("-(1/(R*Cp))*x + 2/(R*Cp)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.setup) != 5 || len(p.body) != 2 {
		t.Errorf("%d setup + %d body instructions, want 5 + 2", len(p.setup), len(p.body))
	}
}

func TestKernelCompileErrors(t *testing.T) {
	base := func() *Model {
		return &Model{
			Name:       "m",
			Parameters: []Parameter{{Name: "k"}},
			States:     []State{{Name: "x", Derivative: mustParseExpression("-k*x")}},
		}
	}
	cases := map[string]func(*Model){
		`unknown identifier "nope"`:    func(m *Model) { m.States[0].Derivative = mustParseExpression("nope*x") },
		`unknown function "foo"`:       func(m *Model) { m.States[0].Derivative = mustParseExpression("foo(x)") },
		"sin expects 1 argument":       func(m *Model) { m.States[0].Derivative = mustParseExpression("sin(x, x)") },
		"min expects 2 arguments":      func(m *Model) { m.Outputs = []Output{{Name: "y", Expr: mustParseExpression("min(x)")}} },
		"der() may only appear":        func(m *Model) { m.States[0].Derivative = mustParseExpression("der(x)") },
		"declared more than once":      func(m *Model) { m.Inputs = []Input{{Name: "k"}} },
		`"time" is declared more than`: func(m *Model) { m.Parameters = append(m.Parameters, Parameter{Name: "time"}) },
		`unknown binary operator "%"`:  func(m *Model) { m.States[0].Derivative = &Binary{Op: "%", L: &Number{}, R: &Number{}} },
		`unknown unary operator "!"`:   func(m *Model) { m.States[0].Derivative = &Unary{Op: "!", X: &Number{}} },
	}
	for want, mutate := range cases {
		m := base()
		mutate(m)
		if _, err := NewKernel(m); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewKernel error %v, want one containing %q", err, want)
		}
	}
	if _, err := NewKernel(base()); err != nil {
		t.Errorf("base model: %v", err)
	}
}

func TestDivisionByZeroStaysARunTimeError(t *testing.T) {
	for _, src := range []string{"1/0", "x/(y - y)", "P/(Q - Q)", "x + 1/(P - P)"} {
		_, err := evalBoth(mustParseExpression(src), MapEnv{"P": 2, "Q": 3, "x": 1, "y": 4})
		if err == nil || err.Error() != "modelica: division by zero" {
			t.Errorf("%s: error %v, want division by zero", src, err)
		}
	}
}

func TestExpressionNestingIsBounded(t *testing.T) {
	for _, src := range []string{
		strings.Repeat("(", maxExprDepth+1) + "1" + strings.Repeat(")", maxExprDepth+1),
		strings.Repeat("-", maxExprDepth+1) + "1",
		strings.Repeat("2^", maxExprDepth+1) + "2",
		strings.Repeat("sin(", maxExprDepth+1) + "1" + strings.Repeat(")", maxExprDepth+1),
	} {
		if _, err := ParseExpression(src); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("ParseExpression(%.12q...): %v, want a nesting error", src, err)
		}
	}
	ok := strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100)
	if _, err := ParseExpression(ok); err != nil {
		t.Errorf("100 levels: %v", err)
	}
}
