package rtl

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ir"
	"repro/internal/pe"
	"repro/internal/rewrite"
)

// EmitTestbench renders a self-checking Verilog testbench for one rewrite
// rule: it drives the PE with `vectors` random input vectors under the
// rule's configuration and compares each result against the expected
// value computed by the Go functional model (embedded as literals). This
// is the artifact a hardware team would hand to their simulator to
// confirm the emitted RTL matches the golden model.
func EmitTestbench(peModule string, rule *rewrite.Rule, vectors int, seed int64) (string, error) {
	spec := rule.Spec
	rng := rand.New(rand.NewSource(seed))

	// Freeze the rule's configuration, binding its constant registers to
	// random values for the whole run. Draw in ascending pattern-node
	// order, not map order, so one seed always yields one testbench.
	cfg := rule.Config.Clone()
	for i := range rule.Pattern.Nodes {
		if cu, ok := rule.ConstRegs[ir.NodeRef(i)]; ok {
			cfg.ConstVals[cu] = uint16(rng.Intn(1 << 16))
		}
	}
	if err := spec.Validate(cfg); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// Self-checking testbench for rule %q on %s\n", rule.Name, peModule)
	fmt.Fprintf(&b, "`timescale 1ns/1ps\n")
	fmt.Fprintf(&b, "module tb_%s;\n", rule.Name)
	b.WriteString("  reg clk = 0, rst_n = 0;\n")
	b.WriteString("  always #0.55 clk = ~clk; // 1.1 ns period\n")
	for i := range spec.Inputs {
		fmt.Fprintf(&b, "  reg [15:0] in%d;\n", i)
	}
	for i := range spec.InputsB {
		fmt.Fprintf(&b, "  reg inb%d;\n", i)
	}
	fmt.Fprintf(&b, "  reg [%d:0] cfg;\n", maxInt(spec.ConfigBits()-1, 0))
	for i := range spec.Outputs {
		fmt.Fprintf(&b, "  wire [15:0] out%d;\n", i)
	}
	fmt.Fprintf(&b, "\n  %s dut (.clk(clk), .rst_n(rst_n), .cfg(cfg)", peModule)
	for i := range spec.Inputs {
		fmt.Fprintf(&b, ", .in%d(in%d)", i, i)
	}
	for i := range spec.InputsB {
		fmt.Fprintf(&b, ", .inb%d(inb%d)", i, i)
	}
	for i := range spec.Outputs {
		fmt.Fprintf(&b, ", .out%d(out%d)", i, i)
	}
	b.WriteString(");\n\n")

	outIdx := indexOf(spec.Outputs, rule.OutUnit)
	b.WriteString("  integer errors = 0;\n")
	b.WriteString("  task check(input [15:0] expected);\n")
	b.WriteString("    begin\n")
	b.WriteString("      #1;\n")
	fmt.Fprintf(&b, "      if (out%d !== expected) begin\n", outIdx)
	fmt.Fprintf(&b, "        $display(\"MISMATCH: out%d = %%h, expected %%h\", out%d, expected);\n", outIdx, outIdx)
	b.WriteString("        errors = errors + 1;\n")
	b.WriteString("      end\n")
	b.WriteString("    end\n")
	b.WriteString("  endtask\n\n")
	b.WriteString("  initial begin\n")
	b.WriteString("    rst_n = 1;\n")
	fmt.Fprintf(&b, "    cfg = %d'h%s;\n", spec.ConfigBits(), "0") // placeholder; fields set below

	// Drive vectors with expected values from the functional model.
	var uv pe.UnitValues
	inVals := make([]uint16, spec.NumDataInputs())
	bitVals := make([]uint16, spec.NumBitInputs())
	for v := 0; v < vectors; v++ {
		for i := range spec.Inputs {
			inVals[i] = uint16(rng.Intn(1 << 16))
			fmt.Fprintf(&b, "    in%d = 16'h%04x;\n", i, inVals[i])
		}
		for i := range spec.InputsB {
			bitVals[i] = uint16(rng.Intn(2))
			fmt.Fprintf(&b, "    inb%d = 1'b%d;\n", i, bitVals[i])
		}
		outs, err := spec.Evaluate(cfg, inVals, bitVals, &uv)
		if err != nil {
			return "", fmt.Errorf("rtl: functional model failed on vector %d: %w", v, err)
		}
		fmt.Fprintf(&b, "    check(16'h%04x);\n", outs[rule.OutUnit])
	}
	b.WriteString("    if (errors == 0) $display(\"PASS\");\n")
	b.WriteString("    else $display(\"FAIL: %0d mismatches\", errors);\n")
	b.WriteString("    $finish;\n")
	b.WriteString("  end\n")
	b.WriteString("endmodule\n")
	return b.String(), nil
}
