package spef

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"xtalksta/internal/ccc"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/device"
	"xtalksta/internal/layout"
	"xtalksta/internal/netlist"
)

func extracted(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := circuitgen.Generate(circuitgen.Params{Seed: 61, Cells: 120, DFFs: 10, Depth: 6, ClockFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	p := device.Generic05um()
	siz := ccc.DefaultSizing(p)
	l, err := layout.Build(c, layout.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Extract(p, ccc.PinCapFunc(c, p, siz), 30e-15); err != nil {
		t.Fatal(err)
	}
	return c
}

// cloneBare re-generates the same circuit without parasitics.
func cloneBare(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := circuitgen.Generate(circuitgen.Params{Seed: 61, Cells: 120, DFFs: 10, Depth: 6, ClockFanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Lower(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	src := extracted(t)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := cloneBare(t)
	if err := Read(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatalf("read back: %v", err)
	}
	for i, ns := range src.Nets {
		nd := dst.Nets[i]
		if relDiff(ns.Par.CWire, nd.Par.CWire) > 1e-5 {
			t.Fatalf("net %s CWire %v vs %v", ns.Name, ns.Par.CWire, nd.Par.CWire)
		}
		if relDiff(ns.Par.RWire, nd.Par.RWire) > 1e-5 {
			t.Fatalf("net %s RWire differs", ns.Name)
		}
		if len(ns.Par.Couplings) != len(nd.Par.Couplings) {
			t.Fatalf("net %s couplings %d vs %d", ns.Name, len(ns.Par.Couplings), len(nd.Par.Couplings))
		}
		for j, cp := range ns.Par.Couplings {
			if nd.Par.Couplings[j].Other != cp.Other || relDiff(cp.C, nd.Par.Couplings[j].C) > 1e-5 {
				t.Fatalf("net %s coupling %d differs", ns.Name, j)
			}
		}
		for pr, d := range ns.Par.SinkWireDelay {
			if relDiff(d, nd.Par.SinkWireDelay[pr]) > 1e-5 {
				t.Fatalf("net %s pin delay differs for %+v", ns.Name, pr)
			}
		}
		if relDiff(ns.Par.POWireDelay, nd.Par.POWireDelay) > 1e-5 {
			t.Fatalf("net %s PO delay differs", ns.Name)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestReadErrors(t *testing.T) {
	c := cloneBare(t)
	cases := map[string]string{
		"no header":      "*D_NET N0 1 1\n*END\n",
		"unknown net":    "*SPEF xtalksta-1\n*D_NET BOGUS 1 1\n*END\n",
		"bad number":     "*SPEF xtalksta-1\n*D_NET N0 xyz 1\n*END\n",
		"orphan pin":     "*SPEF xtalksta-1\n*PIN g0 0 1\n",
		"orphan cc":      "*SPEF xtalksta-1\n*CC N1 1\n",
		"unknown cell":   "*SPEF xtalksta-1\n*D_NET N0 1 1\n*PIN nosuchnet 0 1\n*END\n",
		"unknown dir":    "*SPEF xtalksta-1\n*FROB\n",
		"asym coupling":  "*SPEF xtalksta-1\n*D_NET N0 1 1\n*CC N1 5\n*END\n",
		"short dnet":     "*SPEF xtalksta-1\n*D_NET N0\n",
		"unknown cc net": "*SPEF xtalksta-1\n*D_NET N0 1 1\n*CC NOPE 5\n*END\n",
	}
	for name, src := range cases {
		if err := Read(strings.NewReader(src), c); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	c := cloneBare(t)
	src := "# header comment\n*SPEF xtalksta-1\n\n*DESIGN t\n# another\n*D_NET N0 2.5 10\n*END\n"
	if err := Read(strings.NewReader(src), c); err != nil {
		t.Fatal(err)
	}
	n, _ := c.NetByName("N0")
	if relDiff(n.Par.CWire, 2.5e-15) > 1e-9 {
		t.Errorf("CWire = %v", n.Par.CWire)
	}
}

func TestValidateSymmetryCatches(t *testing.T) {
	c := cloneBare(t)
	a, _ := c.NetByName("N0")
	b, _ := c.NetByName("N1")
	a.Par.Couplings = append(a.Par.Couplings, netlist.Coupling{Other: b.ID, C: 1e-15})
	if err := ValidateSymmetry(c); err == nil {
		t.Error("asymmetric coupling must be rejected")
	}
	b.Par.Couplings = append(b.Par.Couplings, netlist.Coupling{Other: a.ID, C: 1e-15})
	if err := ValidateSymmetry(c); err != nil {
		t.Errorf("symmetric coupling rejected: %v", err)
	}
}

// TestReadRejectsMalformedDirectives: a directive with the wrong field
// count, or a quantity that is negative or not finite, returns a
// line-numbered error instead of panicking or storing the value.
func TestReadRejectsMalformedDirectives(t *testing.T) {
	c := cloneBare(t)
	po := c.Net(c.POs[0]).Name
	hdr := "*SPEF xtalksta-1\n"
	cases := []struct{ name, src, line string }{
		{"po without value", hdr + "*D_NET " + po + " 1 1\n*PO\n*END\n", "line 3"},
		{"po extra field", hdr + "*D_NET " + po + " 1 1\n*PO 1 2\n*END\n", "line 3"},
		{"nan cwire", hdr + "*D_NET N0 NaN 1\n*END\n", "line 2"},
		{"negative rwire", hdr + "*D_NET N0 1 -5\n*END\n", "line 2"},
		{"inf cwire", hdr + "*D_NET N0 +Inf 1\n*END\n", "line 2"},
		{"negative elmore", hdr + "*D_NET N0 1 1\n*PIN N1 0 -1\n*END\n", "line 3"},
		{"negative pin", hdr + "*D_NET N0 1 1\n*PIN N1 -1 1\n*END\n", "line 3"},
		{"short pin", hdr + "*D_NET N0 1 1\n*PIN N1 0\n*END\n", "line 3"},
		{"nan po", hdr + "*D_NET " + po + " 1 1\n*PO NaN\n*END\n", "line 3"},
		{"negative cc", hdr + "*D_NET N0 1 1\n*CC N1 -2\n*END\n", "line 3"},
		{"inf cc", hdr + "*D_NET N0 1 1\n*CC N1 Inf\n*END\n", "line 3"},
		{"self coupling", hdr + "*D_NET N0 1 1\n*CC N0 2\n*END\n", "line 3"},
		{"bare spef", "*SPEF\n*D_NET N0 1 1\n*END\n", "line 1"},
		{"bare design", hdr + "*DESIGN\n", "line 2"},
		{"end with args", hdr + "*D_NET N0 1 1\n*END N0\n", "line 3"},
	}
	for _, tc := range cases {
		err := Read(strings.NewReader(tc.src), cloneBare(t))
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.line) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.line)
		}
	}
}

// extractedEmbedded lowers one of the embedded netlists and extracts
// its parasitics, for SPEF seeds with every directive populated.
func extractedEmbedded(tb testing.TB, c *netlist.Circuit) *netlist.Circuit {
	tb.Helper()
	if err := netlist.Lower(c); err != nil {
		tb.Fatal(err)
	}
	p := device.Generic05um()
	l, err := layout.Build(c, layout.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := l.Extract(p, ccc.PinCapFunc(c, p, ccc.DefaultSizing(p)), 30e-15); err != nil {
		tb.Fatal(err)
	}
	return c
}

// FuzzRead: no input may crash the SPEF reader. Each input is read
// onto a fresh lowered copy of S27 or Adder4 (the seeds are those
// circuits' own extracted files); a file the reader accepts must also
// write back out. `make fuzz-short` runs it for a fixed 30 s.
func FuzzRead(f *testing.F) {
	for _, adder := range []bool{false, true} {
		c := netlist.S27()
		if adder {
			c = netlist.Adder4()
		}
		var buf bytes.Buffer
		if err := Write(&buf, extractedEmbedded(f, c)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), adder)
	}
	f.Fuzz(func(t *testing.T, data []byte, adder bool) {
		c := netlist.S27()
		if adder {
			c = netlist.Adder4()
		}
		if err := netlist.Lower(c); err != nil {
			t.Fatal(err)
		}
		if err := Read(bytes.NewReader(data), c); err != nil {
			return
		}
		if err := Write(io.Discard, c); err != nil {
			t.Fatalf("Write after a successful Read: %v", err)
		}
	})
}
