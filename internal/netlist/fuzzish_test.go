package netlist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestQuickParserNeverPanics feeds the parser semi-random token soup:
// it may (and usually should) error, but must never panic and must
// never return both nil circuit and nil error.
func TestQuickParserNeverPanics(t *testing.T) {
	tokens := []string{
		"INPUT(", "OUTPUT(", ")", "=", "NAND", "NOT", "DFF", "(", ",",
		"G1", "G2", "G3", "#x", "\n", " ", "XOR", "BUFF", "", "(((", "=G",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			if rng.Intn(4) == 0 {
				sb.WriteByte('\n')
			}
		}
		c, err := ParseBench("fuzz", strings.NewReader(sb.String()))
		return (c == nil) == (err != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzParseBench: no input may crash the .bench front end. Parsing
// either returns a circuit or an error, never both nil, and a parsed
// circuit either lowers or returns an error. `make fuzz-short` runs it
// for a fixed 30 s; as a plain test it replays the seeds and the
// crashers committed under testdata/fuzz/FuzzParseBench.
func FuzzParseBench(f *testing.F) {
	f.Add(S27Bench)
	f.Add(Adder4Bench)
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseBench("fuzz", strings.NewReader(src))
		if (c == nil) == (err == nil) {
			t.Fatalf("ParseBench: circuit %v, error %v", c != nil, err)
		}
		if err == nil {
			_ = Lower(c)
		}
	})
}

// TestQuickLowerPreservesRandomCircuits lowers randomly built small
// combinational circuits and checks logical equivalence on random
// vectors.
func TestQuickLowerPreservesRandomCircuits(t *testing.T) {
	f := func(seed int64, vec uint16) bool {
		build := func() *Circuit {
			rng := rand.New(rand.NewSource(seed))
			c := New("rand")
			var nets []NetID
			for i := 0; i < 5; i++ {
				id := c.AddNet(names[i])
				c.MarkPI(id)
				nets = append(nets, id)
			}
			kinds := []GateKind{INV, BUF, AND, OR, NAND, NOR, XOR, XNOR}
			for i := 0; i < 12; i++ {
				kind := kinds[rng.Intn(len(kinds))]
				nin := kind.MinInputs()
				if kind.MaxInputs() > nin {
					nin += rng.Intn(3)
				}
				if kind == XOR || kind == XNOR {
					nin = 2
				}
				ins := make([]NetID, nin)
				seen := map[NetID]bool{}
				for j := range ins {
					for {
						cand := nets[rng.Intn(len(nets))]
						if !seen[cand] {
							seen[cand] = true
							ins[j] = cand
							break
						}
						if len(seen) >= len(nets) {
							ins[j] = nets[rng.Intn(len(nets))]
							break
						}
					}
				}
				out := c.AddNet(names[5+i])
				if _, err := c.AddCell(names[5+i]+"_g", kind, ins, out); err != nil {
					t.Fatal(err)
				}
				nets = append(nets, out)
			}
			c.MarkPO(nets[len(nets)-1])
			c.MarkPO(nets[len(nets)-3])
			return c
		}
		orig := build()
		low := build()
		if err := Lower(low); err != nil {
			t.Fatal(err)
		}
		in := map[string]bool{}
		for i := 0; i < 5; i++ {
			in[names[i]] = vec&(1<<i) != 0
		}
		eq, err := EquivalentOutputs(orig, low, in)
		if err != nil {
			t.Fatal(err)
		}
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

var names = []string{
	"a", "b", "c", "d", "e", "n0", "n1", "n2", "n3", "n4", "n5",
	"n6", "n7", "n8", "n9", "n10", "n11", "n12", "n13", "n14",
}
