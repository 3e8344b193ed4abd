// Package ir implements the word-level dataflow intermediate representation
// that plays the role CoreIR plays in the APEX paper: the exchange format
// between the application frontend, the frequent-subgraph miner, the
// datapath merger, the rewrite-rule synthesizer, the application mapper,
// and the hardware generator.
//
// Graphs operate on a 16-bit datapath with 1-bit predicates, matching the
// CGRA fabric in the paper (16-bit routing tracks, 1-bit control tracks).
// Signed operations interpret words as two's-complement int16.
package ir

// Op enumerates the primitive operations of the IR. The compute subset
// (IsCompute) is what the subgraph miner sees; structural ops (inputs,
// outputs, constants, registers, memories) shape the graph but are not
// mined into PE operations by themselves — constants participate as leaf
// nodes that become PE constant registers.
type Op uint8

const (
	OpInvalid Op = iota

	// Structural
	OpInput       // named 16-bit stream input
	OpInputB      // named 1-bit stream input
	OpOutput      // named output; Args[0] is the value
	OpConst       // 16-bit constant; value in Node.Val
	OpConstB      // 1-bit constant; value in Node.Val (0 or 1)
	OpReg         // single-cycle pipeline register
	OpRegFileFIFO // register file used as FIFO; depth in Node.Val
	OpMem         // memory tile access (line buffer); latency 1
	OpRom         // constant table lookup; Args[0] = address

	// Arithmetic (16-bit)
	OpAdd
	OpSub
	OpMul
	OpNeg
	OpAbs

	// Shifts (16-bit; shift amount is Args[1] & 15)
	OpShl
	OpLshr
	OpAshr

	// Bitwise (16-bit)
	OpAnd
	OpOr
	OpXor
	OpNot

	// Min/max (16-bit)
	OpSMin
	OpSMax
	OpUMin
	OpUMax

	// Comparisons (16-bit inputs, 1-bit result)
	OpEq
	OpNeq
	OpSlt
	OpSle
	OpSgt
	OpSge
	OpUlt
	OpUle
	OpUgt
	OpUge

	// Select: Args = [cond(1b), a, b]; out = cond ? a : b
	OpSel

	// LUT: three 1-bit inputs indexing an 8-bit truth table in Node.Val.
	OpLUT

	opMax // sentinel
)

// opInfo captures static metadata for each op.
type opInfo struct {
	name        string
	arity       int  // -1 = variable (outputs have 1, inputs 0)
	commutative bool // first two data operands may swap without changing meaning
	bitResult   bool // produces a 1-bit value
	compute     bool // eligible for subgraph mining / PE implementation
	hwClass     string
}

var opTable = map[Op]opInfo{
	OpInvalid:     {name: "invalid"},
	OpInput:       {name: "input", arity: 0},
	OpInputB:      {name: "inputb", arity: 0, bitResult: true},
	OpOutput:      {name: "output", arity: 1},
	OpConst:       {name: "const", arity: 0},
	OpConstB:      {name: "constb", arity: 0, bitResult: true},
	OpReg:         {name: "reg", arity: 1},
	OpRegFileFIFO: {name: "regfile", arity: 1},
	OpMem:         {name: "mem", arity: 1},
	OpRom:         {name: "rom", arity: 1},

	OpAdd: {name: "add", arity: 2, commutative: true, compute: true, hwClass: "addsub"},
	OpSub: {name: "sub", arity: 2, compute: true, hwClass: "addsub"},
	OpMul: {name: "mul", arity: 2, commutative: true, compute: true, hwClass: "mul"},
	OpNeg: {name: "neg", arity: 1, compute: true, hwClass: "addsub"},
	OpAbs: {name: "abs", arity: 1, compute: true, hwClass: "abs"},

	OpShl:  {name: "shl", arity: 2, compute: true, hwClass: "shift"},
	OpLshr: {name: "lshr", arity: 2, compute: true, hwClass: "shift"},
	OpAshr: {name: "ashr", arity: 2, compute: true, hwClass: "shift"},

	OpAnd: {name: "and", arity: 2, commutative: true, compute: true, hwClass: "logic"},
	OpOr:  {name: "or", arity: 2, commutative: true, compute: true, hwClass: "logic"},
	OpXor: {name: "xor", arity: 2, commutative: true, compute: true, hwClass: "logic"},
	OpNot: {name: "not", arity: 1, compute: true, hwClass: "logic"},

	OpSMin: {name: "smin", arity: 2, commutative: true, compute: true, hwClass: "minmax"},
	OpSMax: {name: "smax", arity: 2, commutative: true, compute: true, hwClass: "minmax"},
	OpUMin: {name: "umin", arity: 2, commutative: true, compute: true, hwClass: "minmax"},
	OpUMax: {name: "umax", arity: 2, commutative: true, compute: true, hwClass: "minmax"},

	OpEq:  {name: "eq", arity: 2, commutative: true, bitResult: true, compute: true, hwClass: "cmp"},
	OpNeq: {name: "neq", arity: 2, commutative: true, bitResult: true, compute: true, hwClass: "cmp"},
	OpSlt: {name: "slt", arity: 2, bitResult: true, compute: true, hwClass: "cmp"},
	OpSle: {name: "sle", arity: 2, bitResult: true, compute: true, hwClass: "cmp"},
	OpSgt: {name: "sgt", arity: 2, bitResult: true, compute: true, hwClass: "cmp"},
	OpSge: {name: "sge", arity: 2, bitResult: true, compute: true, hwClass: "cmp"},
	OpUlt: {name: "ult", arity: 2, bitResult: true, compute: true, hwClass: "cmp"},
	OpUle: {name: "ule", arity: 2, bitResult: true, compute: true, hwClass: "cmp"},
	OpUgt: {name: "ugt", arity: 2, bitResult: true, compute: true, hwClass: "cmp"},
	OpUge: {name: "uge", arity: 2, bitResult: true, compute: true, hwClass: "cmp"},

	OpSel: {name: "sel", arity: 3, compute: true, hwClass: "sel"},
	OpLUT: {name: "lut", arity: 3, bitResult: true, compute: true, hwClass: "lut"},
}

// Name returns the mining label of the op (stable, lowercase).
func (op Op) Name() string { return opTable[op].name }

// Arity returns the operand count of the op.
func (op Op) Arity() int { return opTable[op].arity }

// Commutative reports whether the op's first two data operands commute.
func (op Op) Commutative() bool { return opTable[op].commutative }

// BitResult reports whether the op produces a 1-bit value.
func (op Op) BitResult() bool { return opTable[op].bitResult }

// IsCompute reports whether the op is a minable compute operation.
func (op Op) IsCompute() bool { return opTable[op].compute }

// HWClass names the hardware block family that implements the op. Two ops
// in the same class can be merged onto one functional unit by the datapath
// merger (e.g. add and sub share an adder/subtractor).
func (op Op) HWClass() string { return opTable[op].hwClass }

func (op Op) String() string { return op.Name() }

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opTable))
	for op, info := range opTable {
		m[info.name] = op
	}
	return m
}()

// OpByName resolves a mining label back to an Op; OpInvalid if unknown.
func OpByName(name string) Op {
	return opByName[name]
}

// AllComputeOps returns every minable compute op in a stable order.
func AllComputeOps() []Op {
	var ops []Op
	for op := Op(1); op < opMax; op++ {
		if info, ok := opTable[op]; ok && info.compute {
			ops = append(ops, op)
		}
	}
	return ops
}

// BaselineALUOps is the operation set of the paper's baseline PE (Fig. 1):
// a general integer ALU with a multiplier, shifter, comparisons, min/max,
// absolute value, select, bitwise logic and a LUT for bit operations.
func BaselineALUOps() []Op {
	return []Op{
		OpAdd, OpSub, OpMul, OpNeg, OpAbs,
		OpShl, OpLshr, OpAshr,
		OpAnd, OpOr, OpXor, OpNot,
		OpSMin, OpSMax, OpUMin, OpUMax,
		OpEq, OpNeq, OpSlt, OpSle, OpSgt, OpSge, OpUlt, OpUle, OpUgt, OpUge,
		OpSel, OpLUT,
	}
}
