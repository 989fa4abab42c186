package incremental_test

import (
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"xtalksta/internal/incremental"
	"xtalksta/internal/netlist"
)

// couplingState deep-copies every net's coupling list, by NetID−1.
func couplingState(c *netlist.Circuit) [][]netlist.Coupling {
	out := make([][]netlist.Coupling, len(c.Nets))
	for i, n := range c.Nets {
		out[i] = slices.Clone(n.Par.Couplings)
	}
	return out
}

func sameCouplings(a, b [][]netlist.Coupling) bool {
	return slices.EqualFunc(a, b, func(x, y []netlist.Coupling) bool { return slices.Equal(x, y) })
}

// checkCaps reports the first coupling cap that is not finite and
// non-negative, or a pair whose two sides do not carry the same caps.
func checkCaps(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	type pair struct{ from, to netlist.NetID }
	sides := make(map[pair][]float64)
	for _, n := range c.Nets {
		for _, cp := range n.Par.Couplings {
			if math.IsNaN(cp.C) || math.IsInf(cp.C, 0) || cp.C < 0 {
				t.Fatalf("net %s: coupling cap %g to net %d", n.Name, cp.C, cp.Other)
			}
			k := pair{n.ID, cp.Other}
			sides[k] = append(sides[k], cp.C)
		}
	}
	for k, caps := range sides {
		back := sides[pair{k.to, k.from}]
		slices.Sort(caps)
		slices.Sort(back)
		if !slices.Equal(caps, back) {
			t.Fatalf("asymmetric coupling %d→%d %v vs %v", k.from, k.to, caps, back)
		}
	}
}

// FuzzApplyBatch feeds arbitrary edit-batch JSON through ParseBatches
// and Apply on a fresh clone of a small design. A rejected batch must
// leave couplings and overrides exactly as they were; an accepted one
// must leave every coupling cap finite, non-negative and symmetric.
func FuzzApplyBatch(f *testing.F) {
	d := build(f, 27)
	a, b := coupledPair(f, d.Circuit)
	seed := func(batches [][]incremental.Edit) {
		data, err := json.Marshal(batches)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed([][]incremental.Edit{overflowBatch(a, b)})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		seed([][]incremental.Edit{incremental.RandomBatch(d.Circuit, rng, 1+i), incremental.RandomBatch(d.Circuit, rng, 3)})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, err := incremental.ParseBatches(data)
		if err != nil {
			return
		}
		c := d.Circuit.CloneForEdit()
		var ov incremental.Overrides
		for _, batch := range batches {
			before := couplingState(c)
			sizes, slews := maps.Clone(ov.CellSizes), maps.Clone(ov.PISlews)
			if _, err := incremental.Apply(c, &ov, batch, nil, nil); err != nil {
				if !sameCouplings(before, couplingState(c)) {
					t.Fatalf("rejected batch (%v) changed couplings", err)
				}
				if !maps.Equal(sizes, ov.CellSizes) || !maps.Equal(slews, ov.PISlews) {
					t.Fatalf("rejected batch (%v) changed overrides", err)
				}
				continue
			}
			checkCaps(t, c)
		}
	})
}
