package modelica

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Expr is a Modelica expression tree node. Expressions are immutable after
// parsing; String() renders source text that re-parses to an equal tree,
// which is how equations are serialized into the FMU payload. Trees are not
// evaluated: NewKernel compiles them (kernel.go).
type Expr interface {
	fmt.Stringer
	// vars adds the free identifiers (excluding function names) to dst.
	vars(dst map[string]bool)
}

// Number is a numeric literal.
type Number struct{ Value float64 }

// String implements Expr.
func (n *Number) String() string {
	return strconv.FormatFloat(n.Value, 'g', -1, 64)
}

func (n *Number) vars(map[string]bool) {}

// Ident is a variable reference.
type Ident struct{ Name string }

// String implements Expr.
func (i *Ident) String() string { return i.Name }

func (i *Ident) vars(dst map[string]bool) { dst[i.Name] = true }

// Unary is a prefix operation: -x or +x.
type Unary struct {
	Op string
	X  Expr
}

// String implements Expr.
func (u *Unary) String() string { return "(" + u.Op + u.X.String() + ")" }

func (u *Unary) vars(dst map[string]bool) { u.X.vars(dst) }

// Binary is an infix operation.
type Binary struct {
	Op   string
	L, R Expr
}

// String implements Expr.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

func (b *Binary) vars(dst map[string]bool) {
	b.L.vars(dst)
	b.R.vars(dst)
}

// Call is a function application. The der() operator is represented as a
// Call with Fn=="der"; it is only legal on the left-hand side of an equation
// and is rejected by the compiler anywhere else.
type Call struct {
	Fn   string
	Args []Expr
}

// String implements Expr.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// builtin1 maps single-argument builtin function names to implementations.
var builtin1 = map[string]func(float64) float64{
	"sin":   math.Sin,
	"cos":   math.Cos,
	"tan":   math.Tan,
	"asin":  math.Asin,
	"acos":  math.Acos,
	"atan":  math.Atan,
	"sinh":  math.Sinh,
	"cosh":  math.Cosh,
	"tanh":  math.Tanh,
	"exp":   math.Exp,
	"log":   math.Log,
	"log10": math.Log10,
	"sqrt":  math.Sqrt,
	"abs":   math.Abs,
	"sign": func(x float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		default:
			return 0
		}
	},
	"floor": math.Floor,
	"ceil":  math.Ceil,
}

// builtin2 maps two-argument builtin function names to implementations.
var builtin2 = map[string]func(float64, float64) float64{
	"min":   math.Min,
	"max":   math.Max,
	"atan2": math.Atan2,
	"mod":   math.Mod,
}

func (c *Call) vars(dst map[string]bool) {
	for _, a := range c.Args {
		a.vars(dst)
	}
}

// FreeVars returns the sorted free identifiers of an expression.
func FreeVars(e Expr) []string {
	set := make(map[string]bool)
	e.vars(set)
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Equation is one equation from the equation section: LHS = RHS.
type Equation struct {
	LHS Expr
	RHS Expr
}

// String renders the equation as Modelica source.
func (e Equation) String() string { return e.LHS.String() + " = " + e.RHS.String() }

// Causality classifies a declared component.
type Causality string

// Causality values mirror FMI scalar-variable causality.
const (
	CausalityParameter Causality = "parameter"
	CausalityInput     Causality = "input"
	CausalityOutput    Causality = "output"
	CausalityLocal     Causality = "local" // plain Real: state or algebraic
)

// Component is one declared variable with its attributes.
type Component struct {
	Causality Causality
	Name      string
	// Start is the start attribute or declaration equation value; NaN when
	// absent.
	Start float64
	// Min and Max bound parameter search; NaN when absent.
	Min, Max float64
	// HasStart records whether Start was given explicitly.
	HasStart bool
	// Description is the optional trailing string comment.
	Description string
}

// RawModel is the syntactic product of parsing, before semantic analysis.
type RawModel struct {
	Name       string
	Components []Component
	Equations  []Equation
}
