package tuner

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dataproxy/internal/perf"
)

// clockModel is the reference the bounded-memo property test drives beside
// a Memo: the CLOCK ring as a slice in ring order and the hand as an index
// into it, with every rule written out the slow, obvious way.
type clockModel struct {
	bound      int
	ring       []*clockSlot
	hand       int
	insertions int
	evictions  int
}

type clockSlot struct {
	key       string
	done, ref bool
}

func (c *clockModel) find(key string) *clockSlot {
	for _, s := range c.ring {
		if s.key == key {
			return s
		}
	}
	return nil
}

// insert places key just behind the hand and evicts down to the bound.
func (c *clockModel) insert(key string, done bool) {
	c.ring = slices.Insert(c.ring, c.hand, &clockSlot{key: key, done: done})
	c.hand++
	c.insertions++
	c.evict()
}

// complete marks key done and evicts down to the bound.
func (c *clockModel) complete(key string) {
	c.find(key).done = true
	c.evict()
}

func (c *clockModel) evict() {
	if c.bound == 0 {
		return
	}
	for idle := 0; len(c.ring) > c.bound && idle < 2*len(c.ring); {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		s := c.ring[c.hand]
		switch {
		case !s.done:
			c.hand++
			idle++
		case s.ref:
			s.ref = false
			c.hand++
			idle++
		default:
			c.ring = slices.Delete(c.ring, c.hand, c.hand+1)
			c.evictions++
			idle = 0
		}
	}
}

// fromHand renders the model's ring from the hand, one "key/done/ref" item
// per entry.
func (c *clockModel) fromHand() []string {
	out := make([]string, 0, len(c.ring))
	for i := range c.ring {
		s := c.ring[(c.hand+i)%len(c.ring)]
		out = append(out, fmt.Sprintf("%s/%t/%t", s.key, s.done, s.ref))
	}
	return out
}

// memoFromHand renders the memo's ring the same way, read under its lock.
func memoFromHand(m *Memo) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.entries))
	for e, i := m.hand, 0; i < len(m.entries); e, i = e.next, i+1 {
		out = append(out, fmt.Sprintf("%s/%t/%t", e.key, e.done.Load(), e.ref))
	}
	return out
}

// memoSlots returns the memo's entries by key, read under its lock.
func memoSlots(m *Memo) map[string]clockSlot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]clockSlot, len(m.entries))
	for k, e := range m.entries {
		out[k] = clockSlot{key: k, done: e.done.Load(), ref: e.ref}
	}
	return out
}

// memoKeyMetrics is the measurement the property tests store under key i.
func memoKeyMetrics(i int) perf.Metrics { return perf.Metrics{Runtime: float64(i + 1)} }

func memoTestKey(i int) string { return fmt.Sprintf("k%d", i) }

// heldClaim is a MeasureLanes call whose measurement the test holds in
// flight until it sends the result on release.
type heldClaim struct {
	key     string
	release chan error
	done    chan struct{}
}

// holdClaim starts measuring key i on m and returns once the measurement
// is running, so key i stays claimed and in flight until complete.
func holdClaim(t *testing.T, m *Memo, i int) *heldClaim {
	t.Helper()
	h := &heldClaim{key: memoTestKey(i), release: make(chan error), done: make(chan struct{})}
	running := make(chan struct{})
	go func() {
		defer close(h.done)
		m.MeasureLanes([]string{h.key}, func([]int) ([]perf.Metrics, error) {
			close(running)
			if err := <-h.release; err != nil {
				return nil, err
			}
			return []perf.Metrics{memoKeyMetrics(i)}, nil
		})
	}()
	select {
	case <-running:
	case <-h.done:
		t.Fatalf("key %s was answered from the memo instead of being claimed", h.key)
	}
	return h
}

// TestBoundedMemoMatchesClockModel drives random sequences of claims held in
// flight, completions (some failing), MeasureLanes and PeekBytes hits and
// Restore calls on memos with bounds 1, 2 and 5, and on NewMemo, beside
// clockModel.  After every operation the memo's ring, read from the hand
// with each entry's done and reference bits, and its eviction count must
// equal the model's, and these hold on the memo itself:
//   - Size() is at most the bound plus the entries in flight;
//   - no entry in flight is ever evicted;
//   - evictions equal insertions minus Size();
//   - an entry hit since the hand last passed it (its reference bit set
//     when the operation began) is not the victim, unless no completed
//     entry had a clear bit;
//   - NewMemo never evicts.
func TestBoundedMemoMatchesClockModel(t *testing.T) {
	for _, bound := range []int{0, 1, 2, 5} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("bound%d/seed%d", bound, seed), func(t *testing.T) {
				runClockModel(t, bound, seed)
			})
		}
	}
}

func runClockModel(t *testing.T, bound int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := NewMemo()
	if bound > 0 {
		m = NewBoundedMemo(bound)
	}
	model := &clockModel{bound: bound}
	universe := 2*bound + 4
	held := map[string]*heldClaim{}
	failed := map[string]bool{}
	t.Cleanup(func() {
		for _, h := range held {
			h.release <- nil
			<-h.done
		}
	})
	for op := 0; op < 300; op++ {
		i := rng.Intn(universe)
		key := memoTestKey(i)
		before := memoSlots(m)
		var desc string
		switch kind := rng.Intn(5); {
		case kind == 0 && len(held) > 0:
			// Complete one held claim, in key order so the run is seeded.
			keys := make([]string, 0, len(held))
			for k := range held {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			k := keys[rng.Intn(len(keys))]
			var err error
			if rng.Intn(4) == 0 {
				err = errors.New("measurement failed")
				failed[k] = true
			}
			h := held[k]
			delete(held, k)
			h.release <- err
			<-h.done
			model.complete(k)
			s := before[k]
			s.done = true
			before[k] = s
			desc = "complete " + k
		case kind == 1 && held[key] == nil:
			// MeasureLanes: a hit on a held key would block, so held keys
			// are left alone.
			if s := model.find(key); s != nil {
				ms, fresh, errs := m.MeasureLanes([]string{key}, func([]int) ([]perf.Metrics, error) {
					t.Fatalf("op %d: MeasureLanes simulated %s, which the memo holds", op, key)
					return nil, nil
				})
				if fresh[0] || (errs[0] != nil) != failed[key] || (errs[0] == nil && ms[0] != memoKeyMetrics(i)) {
					t.Fatalf("op %d: hit on %s returned %+v fresh=%t err=%v", op, key, ms[0], fresh[0], errs[0])
				}
				s.ref = true
				desc = "hit " + key
			} else {
				held[key] = holdClaim(t, m, i)
				delete(failed, key)
				model.insert(key, false)
				desc = "claim " + key
			}
		case kind == 2:
			metrics, ok, err := m.PeekBytes([]byte(key))
			s := model.find(key)
			if want := s != nil && s.done; ok != want {
				t.Fatalf("op %d: PeekBytes(%s) ok=%t, want %t", op, key, ok, want)
			}
			if ok && ((err != nil) != failed[key] || (err == nil && metrics != memoKeyMetrics(i))) {
				t.Fatalf("op %d: PeekBytes(%s) = %+v, %v", op, key, metrics, err)
			}
			if s != nil {
				s.ref = true
			}
			desc = "peek " + key
		default:
			installed := m.Restore(key, memoKeyMetrics(i))
			if want := model.find(key) == nil; installed != want {
				t.Fatalf("op %d: Restore(%s) = %t, want %t", op, key, installed, want)
			}
			if installed {
				delete(failed, key)
				model.insert(key, true)
				before[key] = clockSlot{key: key, done: true}
			}
			desc = "restore " + key
		}

		if got, want := memoFromHand(m), model.fromHand(); !slices.Equal(got, want) {
			t.Fatalf("op %d (%s): memo ring %v, model ring %v", op, desc, got, want)
		}
		size, evictions := m.Size(), m.Evictions()
		if evictions != int64(model.evictions) {
			t.Fatalf("op %d (%s): %d evictions, model %d", op, desc, evictions, model.evictions)
		}
		if bound > 0 && size > bound+len(held) {
			t.Fatalf("op %d (%s): Size %d exceeds bound %d plus %d in flight", op, desc, size, bound, len(held))
		}
		if bound == 0 && evictions != 0 {
			t.Fatalf("op %d (%s): NewMemo evicted %d entries", op, desc, evictions)
		}
		if want := int64(model.insertions - size); evictions != want {
			t.Fatalf("op %d (%s): %d evictions, want insertions %d minus Size %d", op, desc, evictions, model.insertions, size)
		}
		after := memoSlots(m)
		for k := range held {
			if _, ok := after[k]; !ok {
				t.Fatalf("op %d (%s): in-flight key %s was evicted", op, desc, k)
			}
		}
		anyClear := false
		for _, s := range before {
			anyClear = anyClear || (s.done && !s.ref)
		}
		for k, s := range before {
			if _, ok := after[k]; ok {
				continue
			}
			if !s.done {
				t.Fatalf("op %d (%s): evicted %s while it was in flight", op, desc, k)
			}
			if s.ref && anyClear {
				t.Fatalf("op %d (%s): evicted %s, hit since the hand last passed, while a completed entry had a clear bit", op, desc, k)
			}
		}
	}
}

// TestBoundedMemoConcurrent shares one bounded memo among goroutines that
// measure overlapping batches, peek and restore over a key universe six
// times its bound.  No key may be simulated by two callers at once — an
// evicted in-flight entry would let the next caller claim it again — every
// answer must be the key's own measurement, and once every call returns the
// memo must be within its bound with evictions equal to insertions minus
// Size().  Run it with -race -count=10 after changing the memo.
func TestBoundedMemoConcurrent(t *testing.T) {
	const bound, universe, workers, rounds = 4, 24, 8, 300
	m := NewBoundedMemo(bound)
	var running [universe]atomic.Int32
	var insertions atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(universe)
				switch rng.Intn(4) {
				case 0, 1:
					idx := []int{i, rng.Intn(universe), rng.Intn(universe)}[:1+rng.Intn(3)]
					keys := make([]string, len(idx))
					for j, k := range idx {
						keys[j] = memoTestKey(k)
					}
					ms, fresh, errs := m.MeasureLanes(keys, func(cold []int) ([]perf.Metrics, error) {
						out := make([]perf.Metrics, len(cold))
						for j, c := range cold {
							if running[idx[c]].Add(1) != 1 {
								t.Errorf("key %s simulated by two callers at once", keys[c])
							}
							out[j] = memoKeyMetrics(idx[c])
						}
						runtime.Gosched()
						for _, c := range cold {
							running[idx[c]].Add(-1)
						}
						return out, nil
					})
					for j, k := range idx {
						if errs[j] != nil || ms[j] != memoKeyMetrics(k) {
							t.Errorf("key %s answered %+v, %v", keys[j], ms[j], errs[j])
						}
						if fresh[j] {
							insertions.Add(1)
						}
					}
				case 2:
					if metrics, ok, err := m.PeekBytes([]byte(memoTestKey(i))); ok && (err != nil || metrics != memoKeyMetrics(i)) {
						t.Errorf("key %s peeked %+v, %v", memoTestKey(i), metrics, err)
					}
				default:
					if m.Restore(memoTestKey(i), memoKeyMetrics(i)) {
						insertions.Add(1)
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	size, evictions := m.Size(), m.Evictions()
	if size > bound {
		t.Errorf("memo holds %d entries with nothing in flight, bound %d", size, bound)
	}
	if evictions == 0 || evictions != insertions.Load()-int64(size) {
		t.Errorf("%d evictions, want insertions %d minus Size %d (and more than none)", evictions, insertions.Load(), size)
	}
}
