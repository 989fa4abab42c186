// Busrouting builds an 8-bit parallel bus by hand — the classic
// crosstalk scenario the paper's introduction motivates — and annotates
// the coupling parasitics directly instead of running the router.
//
// Two scenarios are compared:
//
//   - Simultaneous bus: every bit can switch in the same cycle window,
//     so the one-step/iterative algorithms cannot rule out coupling and
//     must stay near the worst case. Here "static doubled" visibly
//     UNDERESTIMATES the active coupling model — the paper's §6 warning
//     that the classical 2x-grounded treatment is not a worst case.
//
//   - Staggered bus: delay chains make each bit switch in a different
//     window, so the neighbors of a transitioning victim are provably
//     quiet. The iterative analysis exploits the quiescent times and
//     drops well below the permanent-coupling worst case.
package main

import (
	"fmt"
	"log"
	"os"

	"xtalksta"
	"xtalksta/internal/netlist"
)

const (
	busBits = 8
	// 600 µm of parallel min-pitch wire in the 0.5 µm process.
	busCg = 120e-15 // grounded wire cap per bit
	busCc = 72e-15  // sidewall coupling to each adjacent bit
	busR  = 42.0    // wire resistance (Ω)
)

func main() {
	for _, staggered := range []bool{false, true} {
		c, err := buildBus(staggered)
		if err != nil {
			log.Fatal(err)
		}
		d, err := xtalksta.FromExtracted(c, xtalksta.Defaults())
		if err != nil {
			log.Fatal(err)
		}
		title := "simultaneous 8-bit bus (all bits may switch together)"
		if staggered {
			title = "staggered 8-bit bus (delay chains separate the switching windows)"
		}
		table, err := d.PaperTable(title, false, xtalksta.AnalysisOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if err := table.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	fmt.Println("Takeaway: on the simultaneous bus the iterative bound stays near the")
	fmt.Println("worst case and ABOVE static-doubled — the classical passive model is")
	fmt.Println("not a safe upper bound. On the staggered bus the quiescent-time")
	fmt.Println("analysis proves the neighbors quiet and recovers most of the margin.")
}

// buildBus constructs the bus circuit with hand-annotated parasitics.
func buildBus(staggered bool) (*netlist.Circuit, error) {
	c := netlist.New("bus8")
	for bit := 0; bit < busBits; bit++ {
		in := c.AddNet(fmt.Sprintf("IN%d", bit))
		c.MarkPI(in)

		// Optional stagger chain: 14 inverter pairs per bit of index, so
		// bit k launches ~k windows later.
		src := in
		if staggered {
			for s := 0; s < 28*bit; s++ {
				mid := c.AddNet(fmt.Sprintf("st%d_%d", bit, s))
				name := fmt.Sprintf("stinv%d_%d", bit, s)
				if _, err := c.AddCell(name, netlist.INV, []netlist.NetID{src}, mid); err != nil {
					return nil, err
				}
				// Small local-wire parasitics on chain nets.
				c.Net(mid).Par = netlist.Parasitics{CWire: 5e-15, RWire: 2,
					SinkWireDelay: map[netlist.PinRef]float64{}}
				src = mid
			}
		}

		bus := c.AddNet(fmt.Sprintf("BUS%d", bit))
		if _, err := c.AddCell(fmt.Sprintf("drv%d", bit), netlist.INV, []netlist.NetID{src}, bus); err != nil {
			return nil, err
		}
		out := c.AddNet(fmt.Sprintf("OUT%d", bit))
		rcvID, err := c.AddCell(fmt.Sprintf("rcv%d", bit), netlist.INV, []netlist.NetID{bus}, out)
		if err != nil {
			return nil, err
		}
		c.MarkPO(out)

		// Bus wire parasitics: grounded cap, resistance, and the Elmore
		// delay to the receiver pin (R·C/2 for the lumped line).
		c.Net(bus).Par = netlist.Parasitics{
			CWire: busCg,
			RWire: busR,
			SinkWireDelay: map[netlist.PinRef]float64{
				{Cell: rcvID, Pin: 0}: busR * busCg / 2,
			},
		}
		c.Net(out).Par = netlist.Parasitics{CWire: 10e-15, RWire: 5,
			SinkWireDelay: map[netlist.PinRef]float64{}}
	}
	// Coupling: each bit to its track neighbors, symmetric.
	for bit := 0; bit < busBits-1; bit++ {
		a, _ := c.NetByName(fmt.Sprintf("BUS%d", bit))
		b, _ := c.NetByName(fmt.Sprintf("BUS%d", bit+1))
		a.Par.Couplings = append(a.Par.Couplings, netlist.Coupling{Other: b.ID, C: busCc})
		b.Par.Couplings = append(b.Par.Couplings, netlist.Coupling{Other: a.ID, C: busCc})
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
