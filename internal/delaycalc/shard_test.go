package delaycalc

import (
	"sync"
	"testing"

	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
	"xtalksta/internal/waveform"
)

// shardReqs builds a request set that spreads across shards (kind,
// pin, direction and slew/load buckets all vary).
func shardReqs() []Request {
	reqs := make([]Request, 0, 24)
	for i := 0; i < 24; i++ {
		r := Request{
			Kind:   []netlist.GateKind{netlist.INV, netlist.NAND, netlist.NOR}[i%3],
			NIn:    1,
			Pin:    0,
			Dir:    waveform.Direction(i % 2),
			InSlew: 0.12e-9 * float64(1+i%4),
			CLoad:  25e-15 * float64(1+i%5),
		}
		if r.Kind != netlist.INV {
			r.NIn = 2 + i%2
			r.Pin = i % r.NIn
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// TestShardedCacheRace16 hammers the lock-striped cache from 16
// goroutines (run with -race) and demands the Simulations/Newton
// counters land exactly on the sequential totals: per-shard
// single-flight must still collapse concurrent misses on one key.
func TestShardedCacheRace16(t *testing.T) {
	reqs := shardReqs()

	seq := newCalc(t, Options{})
	for _, r := range reqs {
		if _, err := seq.Eval(r); err != nil {
			t.Fatal(err)
		}
	}
	want := seq.Counters()

	reg := obs.NewRegistry()
	par := newCalc(t, Options{Metrics: reg})
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Start each goroutine at a different offset so shard
			// contention actually happens.
			for i := range reqs {
				if _, err := par.Eval(reqs[(g+i)%len(reqs)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got := par.Counters()
	want.Requests *= goroutines
	// Every request is a simulation or a cache hit (single-flight
	// waiters count as hits), so hits scale with the request total.
	want.CacheHits = want.Requests - want.Simulations
	if got != want {
		t.Errorf("16-goroutine counters differ from sequential:\n  got  %+v\n  want %+v", got, want)
	}

	// Shard metrics sanity: every request is either a hit or a miss
	// (single-flight waiters count as hits), and the shard-count gauge
	// reports the stripe count. Hit/miss split is scheduling-
	// dependent, so only the sum is exact.
	hits := reg.Counter(obs.MDelayCacheHits).Value()
	misses := reg.Counter(obs.MDelayCacheMisses).Value()
	if hits+misses != got.Requests {
		t.Errorf("hits (%d) + misses (%d) != requests (%d)", hits, misses, got.Requests)
	}
	if misses < int64(len(reqs)) {
		t.Errorf("misses %d below distinct key count %d", misses, len(reqs))
	}
	if g := reg.Gauge(obs.MDelayCacheShards).Value(); g != cacheShards {
		t.Errorf("shard gauge = %v, want %d", g, cacheShards)
	}
}

// TestShardedClearCache: ClearCache must clear every shard, so a
// repeat of the same request set re-simulates every distinct key.
func TestShardedClearCache(t *testing.T) {
	c := newCalc(t, Options{})
	for _, r := range shardReqs() {
		if _, err := c.Eval(r); err != nil {
			t.Fatal(err)
		}
	}
	_, sims0 := c.Stats()
	if sims0 == 0 {
		t.Fatal("no simulations recorded")
	}
	c.ClearCache()
	c.ResetStats()
	for _, r := range shardReqs() {
		if _, err := c.Eval(r); err != nil {
			t.Fatal(err)
		}
	}
	_, sims := c.Stats()
	if sims != sims0 {
		t.Errorf("after ClearCache the sweep must re-simulate all %d distinct keys, got %d", sims0, sims)
	}
}
