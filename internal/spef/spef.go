// Package spef reads and writes the reproduction's parasitic exchange
// format — a simplified SPEF dialect carrying exactly the annotation
// the crosstalk analyses need: per net, the grounded wire capacitance,
// the wire resistance, the Elmore delay to every sink pin, and the
// coupling capacitances to named adjacent nets.
//
// Sink cells are identified by their output net (the `.bench` format
// has no instance names, and output nets are unique per cell, so this
// key survives a netlist round trip). Grammar (line oriented,
// # comments):
//
//	*SPEF xtalksta-1
//	*DESIGN <name>
//	*D_NET <net> <cwire_fF> <rwire_ohm>
//	*PIN <sink-cell-output-net> <pin> <elmore_ps>
//	*PO <elmore_ps>
//	*CC <other-net> <cc_fF>
//	*END
//
// Units are fixed (fF, Ω, ps) to keep files human-readable at circuit
// scale.
package spef

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"xtalksta/internal/netlist"
)

// Write emits the circuit's parasitics.
func Write(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "*SPEF xtalksta-1\n*DESIGN %s\n", c.Name)
	for _, n := range c.Nets {
		if n.Par.CWire == 0 && n.Par.RWire == 0 && len(n.Par.Couplings) == 0 &&
			len(n.Par.SinkWireDelay) == 0 && n.Par.POWireDelay == 0 {
			continue
		}
		fmt.Fprintf(bw, "*D_NET %s %.6g %.6g\n", n.Name, n.Par.CWire*1e15, n.Par.RWire)
		// Deterministic pin order.
		pins := make([]netlist.PinRef, 0, len(n.Par.SinkWireDelay))
		for pr := range n.Par.SinkWireDelay {
			pins = append(pins, pr)
		}
		sort.Slice(pins, func(i, j int) bool {
			if pins[i].Cell != pins[j].Cell {
				return pins[i].Cell < pins[j].Cell
			}
			return pins[i].Pin < pins[j].Pin
		})
		for _, pr := range pins {
			fmt.Fprintf(bw, "*PIN %s %d %.6g\n", c.Net(c.Cell(pr.Cell).Out).Name, pr.Pin, n.Par.SinkWireDelay[pr]*1e12)
		}
		if n.IsPO && n.Par.POWireDelay != 0 {
			fmt.Fprintf(bw, "*PO %.6g\n", n.Par.POWireDelay*1e12)
		}
		for _, cp := range n.Par.Couplings {
			fmt.Fprintf(bw, "*CC %s %.6g\n", c.Net(cp.Other).Name, cp.C*1e15)
		}
		fmt.Fprintf(bw, "*END\n")
	}
	return bw.Flush()
}

// Read annotates an existing circuit from a parasitics file. Net names
// must resolve in the circuit; cell names in *PIN lines likewise.
// Couplings are validated for symmetry after loading.
func Read(r io.Reader, c *netlist.Circuit) error {
	// Cells are keyed by their (unique) output net name.
	cellByOutNet := make(map[string]netlist.CellID, len(c.Cells))
	for _, cell := range c.Cells {
		cellByOutNet[c.Net(cell.Out).Name] = cell.ID
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	var cur *netlist.Net
	lineNo := 0
	sawHeader := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		// want checks a directive's field count; num parses one of its
		// quantities, all of which are finite and non-negative.
		want := func(n int, usage string) error {
			if len(fields) != n {
				return fmt.Errorf("spef: line %d: %s wants %s", lineNo, fields[0], usage)
			}
			return nil
		}
		num := func(field string) (float64, error) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return 0, fmt.Errorf("spef: line %d: %q is not a finite non-negative number", lineNo, field)
			}
			return v, nil
		}
		inNet := func() error {
			if cur == nil {
				return fmt.Errorf("spef: line %d: %s outside *D_NET", lineNo, fields[0])
			}
			return nil
		}
		switch fields[0] {
		case "*SPEF":
			if err := want(2, "<version>"); err != nil {
				return err
			}
			sawHeader = true
		case "*DESIGN":
			// informational; the name may contain spaces
			if len(fields) < 2 {
				return fmt.Errorf("spef: line %d: *DESIGN wants <name>", lineNo)
			}
		case "*D_NET":
			if err := want(4, "<net> <cwire_fF> <rwire_ohm>"); err != nil {
				return err
			}
			n, ok := c.NetByName(fields[1])
			if !ok {
				return fmt.Errorf("spef: line %d: unknown net %q", lineNo, fields[1])
			}
			cw, err := num(fields[2])
			if err != nil {
				return err
			}
			rw, err := num(fields[3])
			if err != nil {
				return err
			}
			n.Par = netlist.Parasitics{
				CWire:         cw * 1e-15,
				RWire:         rw,
				SinkWireDelay: make(map[netlist.PinRef]float64),
			}
			cur = n
		case "*PIN":
			if err := inNet(); err != nil {
				return err
			}
			if err := want(4, "<cell> <pin> <elmore_ps>"); err != nil {
				return err
			}
			cid, ok := cellByOutNet[fields[1]]
			if !ok {
				return fmt.Errorf("spef: line %d: no cell drives net %q", lineNo, fields[1])
			}
			pin, err := strconv.Atoi(fields[2])
			if err != nil || pin < 0 {
				return fmt.Errorf("spef: line %d: bad pin index %q", lineNo, fields[2])
			}
			d, err := num(fields[3])
			if err != nil {
				return err
			}
			cur.Par.SinkWireDelay[netlist.PinRef{Cell: cid, Pin: pin}] = d * 1e-12
		case "*PO":
			if err := inNet(); err != nil {
				return err
			}
			if err := want(2, "<elmore_ps>"); err != nil {
				return err
			}
			d, err := num(fields[1])
			if err != nil {
				return err
			}
			cur.Par.POWireDelay = d * 1e-12
		case "*CC":
			if err := inNet(); err != nil {
				return err
			}
			if err := want(3, "<net> <cc_fF>"); err != nil {
				return err
			}
			other, ok := c.NetByName(fields[1])
			if !ok {
				return fmt.Errorf("spef: line %d: unknown coupled net %q", lineNo, fields[1])
			}
			if other == cur {
				return fmt.Errorf("spef: line %d: net %q couples to itself", lineNo, fields[1])
			}
			cc, err := num(fields[2])
			if err != nil {
				return err
			}
			cur.Par.Couplings = append(cur.Par.Couplings, netlist.Coupling{Other: other.ID, C: cc * 1e-15})
		case "*END":
			if err := want(1, "no arguments"); err != nil {
				return err
			}
			cur = nil
		default:
			return fmt.Errorf("spef: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("spef: %w", err)
	}
	if !sawHeader {
		return fmt.Errorf("spef: missing *SPEF header")
	}
	if err := ValidateSymmetry(c); err != nil {
		return err
	}
	c.CompactCouplings()
	return nil
}

// ValidateSymmetry checks that every coupling has a matching reverse
// entry of equal value — the invariant the extractor guarantees and the
// analyses assume.
func ValidateSymmetry(c *netlist.Circuit) error {
	for _, n := range c.Nets {
		for _, cp := range n.Par.Couplings {
			other := c.Net(cp.Other)
			found := false
			for _, back := range other.Par.Couplings {
				if back.Other == n.ID && nearly(back.C, cp.C) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("spef: coupling %s→%s (%g F) has no symmetric partner",
					n.Name, other.Name, cp.C)
			}
		}
	}
	return nil
}

func nearly(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d <= 1e-9*m+1e-24
}
