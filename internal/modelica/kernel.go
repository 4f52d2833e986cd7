package modelica

import (
	"errors"
	"fmt"
	"math"
)

// The simulation kernel: expressions are compiled once per model into
// register programs over one flat []float64, so that evaluating a derivative
// resolves no name, hashes no string and walks no tree.
//
// Registers 0..n-1 are the model's slots — time, then parameters, inputs and
// states in declaration order — and the caller writes them. Literals and
// intermediate results live in the registers after the slots; every
// instruction writes a register of its own, so a program reads only slots,
// literals and results computed earlier in the same run.
//
// Bit-identity contract: a program performs exactly the float64 operations
// the expression tree spells, one per instruction, left operand first. Each
// result is stored to its register before anything reads it, which is what
// keeps a compiler from fusing a multiply into the add that follows it or
// reassociating a sum; '^' is math.Pow and builtins are the function values
// of the builtin tables.

type opcode uint8

const (
	opNeg opcode = iota
	opAdd
	opSub
	opMul
	opDiv
	opPow
	opLT
	opGT
	opLE
	opGE
	opEQ
	opNE
	opCall1
	opCall2
)

var binaryOps = map[string]opcode{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "^": opPow,
	"<": opLT, ">": opGT, "<=": opLE, ">=": opGE, "==": opEQ, "<>": opNE,
}

// instr is one register instruction: dst = op(a, b). Operands are register
// indices; f1/f2 carry the builtin of opCall1/opCall2.
type instr struct {
	op        opcode
	dst, a, b int32
	f1        func(float64) float64
	f2        func(float64, float64) float64
}

// errDivisionByZero is the one error a compiled program can raise; every
// other failure of the old tree evaluator is a compile error now.
var errDivisionByZero = errors.New("modelica: division by zero")

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func exec(code []instr, r []float64) error {
	for i := range code {
		in := &code[i]
		switch in.op {
		case opNeg:
			r[in.dst] = -r[in.a]
		case opAdd:
			r[in.dst] = r[in.a] + r[in.b]
		case opSub:
			r[in.dst] = r[in.a] - r[in.b]
		case opMul:
			r[in.dst] = r[in.a] * r[in.b]
		case opDiv:
			d := r[in.b]
			if d == 0 {
				return errDivisionByZero
			}
			r[in.dst] = r[in.a] / d
		case opPow:
			r[in.dst] = math.Pow(r[in.a], r[in.b])
		case opLT:
			r[in.dst] = boolVal(r[in.a] < r[in.b])
		case opGT:
			r[in.dst] = boolVal(r[in.a] > r[in.b])
		case opLE:
			r[in.dst] = boolVal(r[in.a] <= r[in.b])
		case opGE:
			r[in.dst] = boolVal(r[in.a] >= r[in.b])
		case opEQ:
			r[in.dst] = boolVal(r[in.a] == r[in.b])
		case opNE:
			r[in.dst] = boolVal(r[in.a] != r[in.b])
		case opCall1:
			r[in.dst] = in.f1(r[in.a])
		case opCall2:
			r[in.dst] = in.f2(r[in.a], r[in.b])
		}
	}
	return nil
}

// Program is one compiled expression. Its instructions are split in two:
// setup holds the subtrees that read only parameters and literals
// (1/(R*Cp) in the paper's heat pump), body everything that also reads
// time, an input or a state. Bind runs setup once after the parameter
// slots are written; Run runs body per evaluation. Together they perform
// the tree's operations exactly once each per Run, on the same operands.
type Program struct {
	setup, body []instr
	result      int32
}

// Bind evaluates the parameter-only part of the program into regs. It must
// run after the parameter slots are written and before the first Run. A
// division by zero there is returned, and belongs to every later Run: the
// tree evaluator would have raised it on each evaluation.
func (p *Program) Bind(regs []float64) error { return exec(p.setup, regs) }

// Run evaluates the program against the current slot values in regs.
func (p *Program) Run(regs []float64) (float64, error) {
	if err := exec(p.body, regs); err != nil {
		return 0, err
	}
	return regs[p.result], nil
}

// compiler assigns registers and emits instructions for the expressions of
// one register file.
type compiler struct {
	slots map[string]int32
	// init is the register file as a simulation starts with it: slots zero,
	// literals in place. invariant marks the registers whose value cannot
	// change during a simulation: parameter slots, literals, and results of
	// instructions over those.
	init      []float64
	invariant []bool
}

// slot appends a named slot; slots must all be added before compiling.
func (c *compiler) slot(name string, invariant bool) error {
	if c.slots == nil {
		c.slots = make(map[string]int32)
	}
	if _, dup := c.slots[name]; dup {
		return fmt.Errorf("modelica: variable %q is declared more than once", name)
	}
	c.slots[name] = c.register(0, invariant)
	return nil
}

func (c *compiler) register(v float64, invariant bool) int32 {
	c.init = append(c.init, v)
	c.invariant = append(c.invariant, invariant)
	return int32(len(c.init) - 1)
}

// emit appends in to the setup or body of p, depending on whether all its
// operands are invariant, and returns its result register.
func (c *compiler) emit(p *Program, in instr, operands ...int32) int32 {
	invariant := true
	for _, r := range operands {
		invariant = invariant && c.invariant[r]
	}
	in.dst = c.register(0, invariant)
	if invariant {
		p.setup = append(p.setup, in)
	} else {
		p.body = append(p.body, in)
	}
	return in.dst
}

func (c *compiler) compile(e Expr) (Program, error) {
	var p Program
	res, err := c.expr(&p, e)
	p.result = res
	return p, err
}

// expr compiles e into p and returns the register holding its value.
// Errors come in the order the tree evaluator met them: left operand, right
// operand, then the operator itself.
func (c *compiler) expr(p *Program, e Expr) (int32, error) {
	switch x := e.(type) {
	case *Number:
		return c.register(x.Value, true), nil
	case *Ident:
		if r, ok := c.slots[x.Name]; ok {
			return r, nil
		}
		return 0, fmt.Errorf("modelica: unknown identifier %q", x.Name)
	case *Unary:
		v, err := c.expr(p, x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return c.emit(p, instr{op: opNeg, a: v}, v), nil
		case "+":
			return v, nil
		}
		return 0, fmt.Errorf("modelica: unknown unary operator %q", x.Op)
	case *Binary:
		l, err := c.expr(p, x.L)
		if err != nil {
			return 0, err
		}
		r, err := c.expr(p, x.R)
		if err != nil {
			return 0, err
		}
		op, ok := binaryOps[x.Op]
		if !ok {
			return 0, fmt.Errorf("modelica: unknown binary operator %q", x.Op)
		}
		return c.emit(p, instr{op: op, a: l, b: r}, l, r), nil
	case *Call:
		return c.call(p, x)
	}
	return 0, fmt.Errorf("modelica: unsupported expression node %T", e)
}

func (c *compiler) call(p *Program, x *Call) (int32, error) {
	if x.Fn == "der" {
		return 0, fmt.Errorf("modelica: der() may only appear on the left-hand side of an equation")
	}
	if f, ok := builtin1[x.Fn]; ok {
		if len(x.Args) != 1 {
			return 0, fmt.Errorf("modelica: %s expects 1 argument, got %d", x.Fn, len(x.Args))
		}
		a, err := c.expr(p, x.Args[0])
		if err != nil {
			return 0, err
		}
		return c.emit(p, instr{op: opCall1, a: a, f1: f}, a), nil
	}
	if f, ok := builtin2[x.Fn]; ok {
		if len(x.Args) != 2 {
			return 0, fmt.Errorf("modelica: %s expects 2 arguments, got %d", x.Fn, len(x.Args))
		}
		a, err := c.expr(p, x.Args[0])
		if err != nil {
			return 0, err
		}
		b, err := c.expr(p, x.Args[1])
		if err != nil {
			return 0, err
		}
		return c.emit(p, instr{op: opCall2, a: a, b: b, f2: f}, a, b), nil
	}
	return 0, fmt.Errorf("modelica: unknown function %q", x.Fn)
}

// evalConstant evaluates an expression that may name no variable (attribute
// and declaration values): a program over zero slots.
func evalConstant(e Expr) (float64, error) {
	var c compiler
	p, err := c.compile(e)
	if err != nil {
		return 0, err
	}
	regs := c.init
	if err := p.Bind(regs); err != nil {
		return 0, err
	}
	return p.Run(regs)
}

// TimeSlot is the register every kernel keeps the time builtin in.
const TimeSlot = 0

// Kernel is a model compiled against its slot layout: register TimeSlot is
// time, then one register per parameter, input and state in declaration
// order, starting at ParamSlot, InputSlot and StateSlot. A Kernel is
// immutable; each simulation runs it over its own NewRegisters.
type Kernel struct {
	ParamSlot, InputSlot, StateSlot int
	// Derivatives[i] computes der(States[i]); Outputs[i] computes
	// Outputs[i] of the model.
	Derivatives []Program
	Outputs     []Program

	init []float64
}

// NewKernel compiles every derivative and output expression of m. Unknown
// identifiers, unknown functions and wrong arity are errors here, once,
// where the tree evaluator met them on the first evaluation.
func NewKernel(m *Model) (*Kernel, error) {
	var c compiler
	if err := c.slot("time", false); err != nil {
		return nil, err
	}
	k := &Kernel{ParamSlot: len(c.init)}
	for _, p := range m.Parameters {
		if err := c.slot(p.Name, true); err != nil {
			return nil, err
		}
	}
	k.InputSlot = len(c.init)
	for _, in := range m.Inputs {
		if err := c.slot(in.Name, false); err != nil {
			return nil, err
		}
	}
	k.StateSlot = len(c.init)
	for _, s := range m.States {
		if err := c.slot(s.Name, false); err != nil {
			return nil, err
		}
	}
	for _, s := range m.States {
		p, err := c.compile(s.Derivative)
		if err != nil {
			return nil, fmt.Errorf("der(%s): %w", s.Name, err)
		}
		k.Derivatives = append(k.Derivatives, p)
	}
	for _, o := range m.Outputs {
		p, err := c.compile(o.Expr)
		if err != nil {
			return nil, fmt.Errorf("output %s: %w", o.Name, err)
		}
		k.Outputs = append(k.Outputs, p)
	}
	k.init = c.init
	return k, nil
}

// NewRegisters returns a fresh register file: literals loaded, slots zero.
func (k *Kernel) NewRegisters() []float64 {
	return append([]float64(nil), k.init...)
}
