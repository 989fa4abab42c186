package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ParseBench reads an ISCAS89 `.bench` netlist:
//
//	# comment
//	INPUT(G0)
//	OUTPUT(G17)
//	G5 = DFF(G10)
//	G10 = NAND(G0, G3)
//
// Gate names are the ISCAS89 spellings (NOT, BUFF, AND, OR, NAND, NOR,
// XOR, XNOR, DFF). The returned circuit is validated.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	c := New(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	type rawCell struct {
		line     int
		out      string
		kind     GateKind
		kindName string
		ins      []string
	}
	var raw []rawCell
	type clockAssoc struct {
		line   int
		q, clk string
	}
	var clockNets []string
	var dffClocks []clockAssoc
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			// Extension annotations (ignored by other tools): clock-net
			// marking and DFF clock-pin association, which the plain
			// format cannot express.
			fields := strings.Fields(line)
			switch {
			case len(fields) == 3 && fields[1] == "@clocknet":
				clockNets = append(clockNets, fields[2])
			case len(fields) == 4 && fields[1] == "@dffclock":
				dffClocks = append(dffClocks, clockAssoc{lineNo, fields[2], fields[3]})
			}
			continue
		}
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(strings.ToUpper(line), "INPUT("):
			arg, err := parseParen(line)
			if err != nil {
				return nil, fmt.Errorf("netlist: %s line %d: %w", name, lineNo, err)
			}
			c.MarkPI(c.AddNet(arg))
		case strings.HasPrefix(strings.ToUpper(line), "OUTPUT("):
			arg, err := parseParen(line)
			if err != nil {
				return nil, fmt.Errorf("netlist: %s line %d: %w", name, lineNo, err)
			}
			c.MarkPO(c.AddNet(arg))
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("netlist: %s line %d: expected assignment, got %q", name, lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			close := strings.LastIndex(rhs, ")")
			if open < 0 || close < open {
				return nil, fmt.Errorf("netlist: %s line %d: malformed gate %q", name, lineNo, rhs)
			}
			kindName := strings.TrimSpace(rhs[:open])
			kind, ok := ParseGateKind(kindName)
			if !ok {
				return nil, fmt.Errorf("netlist: %s line %d: unknown gate type %q", name, lineNo, kindName)
			}
			var ins []string
			for _, part := range strings.Split(rhs[open+1:close], ",") {
				part = strings.TrimSpace(part)
				if part == "" {
					return nil, fmt.Errorf("netlist: %s line %d: empty input name", name, lineNo)
				}
				ins = append(ins, part)
			}
			raw = append(raw, rawCell{lineNo, out, kind, kindName, ins})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: reading %s: %w", name, err)
	}
	// Create cells after all lines are seen so forward references work.
	for _, rc := range raw {
		out := c.AddNet(rc.out)
		ins := make([]NetID, len(rc.ins))
		for i, s := range rc.ins {
			ins[i] = c.AddNet(s)
		}
		cellName := fmt.Sprintf("%s_%s", strings.ToLower(rc.kindName), rc.out)
		if _, err := c.AddCell(cellName, rc.kind, ins, out); err != nil {
			return nil, fmt.Errorf("netlist: %s line %d: %w", name, rc.line, err)
		}
	}
	// Apply clock annotations.
	for _, name := range clockNets {
		if n, ok := c.NetByName(name); ok {
			n.IsClock = true
			if n.IsPI && c.ClockRoot == NoNet {
				c.ClockRoot = n.ID
			}
		}
	}
	for _, ca := range dffClocks {
		q, ok1 := c.NetByName(ca.q)
		clk, ok2 := c.NetByName(ca.clk)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("netlist: %s line %d: @dffclock references unknown nets %q/%q",
				name, ca.line, ca.q, ca.clk)
		}
		if q.Driver == NoCell || c.Cell(q.Driver).Kind != DFF {
			return nil, fmt.Errorf("netlist: %s line %d: @dffclock %q is not a DFF output", name, ca.line, ca.q)
		}
		c.Cell(q.Driver).Clock = clk.ID
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseParen(line string) (string, error) {
	open := strings.Index(line, "(")
	close := strings.LastIndex(line, ")")
	if open < 0 || close < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	arg := strings.TrimSpace(line[open+1 : close])
	if arg == "" {
		return "", fmt.Errorf("empty name in %q", line)
	}
	return arg, nil
}

// WriteBench renders the circuit in `.bench` format. Clock-tree cells
// (CLKBUF) and clock pins are emitted as comments since the format has
// no notion of explicit clocks.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	st, err := c.Stats()
	if err == nil {
		fmt.Fprintf(bw, "# %d inputs, %d outputs, %d D-type flipflops, %d cells, depth %d\n",
			st.PIs, st.POs, st.DFFs, st.Cells, st.LogicDepth)
	}
	pis := append([]NetID(nil), c.PIs...)
	sort.Slice(pis, func(i, j int) bool { return c.Net(pis[i]).Name < c.Net(pis[j]).Name })
	for _, id := range pis {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Net(id).Name)
	}
	pos := append([]NetID(nil), c.POs...)
	sort.Slice(pos, func(i, j int) bool { return c.Net(pos[i]).Name < c.Net(pos[j]).Name })
	for _, id := range pos {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Net(id).Name)
	}
	for _, cell := range c.Cells {
		kind := cell.Kind
		if kind == CLKBUF {
			// CLKBUF is electrically a buffer; the clock-net annotation
			// below preserves its role.
			kind = BUF
		}
		names := make([]string, len(cell.In))
		for i, in := range cell.In {
			names[i] = c.Net(in).Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", c.Net(cell.Out).Name, kind, strings.Join(names, ", "))
	}
	// Extension annotations: clock nets and DFF clock pins.
	for _, n := range c.Nets {
		if n.IsClock {
			fmt.Fprintf(bw, "# @clocknet %s\n", n.Name)
		}
	}
	for _, cell := range c.Cells {
		if cell.Kind == DFF && cell.Clock != NoNet {
			fmt.Fprintf(bw, "# @dffclock %s %s\n", c.Net(cell.Out).Name, c.Net(cell.Clock).Name)
		}
	}
	return bw.Flush()
}
