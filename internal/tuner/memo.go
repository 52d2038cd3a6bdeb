package tuner

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/sim"
)

// Memo is a singleflight-style cache of proxy-benchmark measurements keyed
// by (benchmark, canonicalized setting, architecture profile).  The first
// caller of a key executes the simulation; concurrent callers of the same
// key block for that result; later callers get the cached metrics with zero
// new simulation.  It follows the same per-key discipline as the
// experiments.Suite report caches, and one Memo may be shared across the
// concurrent per-profile tunes of TuneAll because the profile is part of
// every key.  All methods are safe for concurrent use.
//
// A memo built by NewBoundedMemo evicts completed entries one at a time by
// CLOCK (second chance): entries sit on a ring in insertion order, a hit
// sets an entry's reference bit, and whenever an insertion or a completion
// leaves the memo over its bound the hand skips entries in flight, clears
// set bits and evicts the first completed entry whose bit is clear.  An
// entry in flight is never evicted — the next caller would claim and
// simulate its key again — so the memo exceeds its bound only by the
// entries in flight.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	// bound caps the completed entries (0: no cap) and never changes; hand,
	// the next ring entry the CLOCK examines, is guarded by mu.
	bound     int
	hand      *memoEntry
	evictions atomic.Int64
}

type memoEntry struct {
	// claimed is CAS-set by the one caller responsible for executing the
	// measurement; everyone else waits on ready.  A claim-flag (instead of a
	// sync.Once) lets MeasureLanes claim many entries up front, run them as
	// one batched simulation, and only then complete them.
	claimed atomic.Bool
	// done flips to true after metrics/err are populated; PeekBytes reads it
	// with acquire semantics so a true observation guarantees the fields are
	// visible without taking any lock or blocking on ready.
	done    atomic.Bool
	ready   chan struct{}
	metrics perf.Metrics
	err     error

	// key, the reference bit ref and the ring links prev and next belong to
	// the memo's CLOCK and are guarded by its mu.
	key        string
	ref        bool
	prev, next *memoEntry
}

// complete publishes the entry's metrics/err fields (which must be assigned
// before the call) and wakes every waiter.  It must run exactly once per
// entry, on the claiming caller.
func (e *memoEntry) complete() {
	e.done.Store(true)
	close(e.ready)
}

// NewMemo returns an empty measurement memo without a bound: it keeps every
// key it ever measured.
func NewMemo() *Memo { return NewBoundedMemo(0) }

// NewBoundedMemo returns an empty measurement memo that holds at most bound
// completed entries, evicting one at a time by the CLOCK policy the Memo
// documentation describes.  A bound below 1 means no bound, as NewMemo.
func NewBoundedMemo(bound int) *Memo {
	return &Memo{entries: make(map[string]*memoEntry), bound: max(bound, 0)}
}

// entry returns the (created-if-missing) entry for key.  Finding an
// existing entry is a hit and sets its reference bit.
func (m *Memo) entry(key string) *memoEntry {
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		e = &memoEntry{ready: make(chan struct{})}
		m.insertLocked(key, e)
	} else {
		e.ref = true
	}
	m.mu.Unlock()
	return e
}

// insertLocked (mu held) adds e under key just behind the hand, so it is
// the last entry the hand reaches, and evicts down to the bound.  The first
// entry becomes the hand and its own ring.
func (m *Memo) insertLocked(key string, e *memoEntry) {
	e.key = key
	m.entries[key] = e
	if m.hand == nil {
		m.hand, e.prev = e, e
	}
	e.prev, e.next = m.hand.prev, m.hand
	e.prev.next = e
	m.hand.prev = e
	m.evictLocked()
}

// evictLocked (mu held) advances the hand while the memo holds more entries
// than its bound: it skips entries in flight, clears set reference bits and
// evicts the first completed entry whose bit is clear.  Two turns of the
// ring without a victim mean every entry is in flight, and the scan stops.
func (m *Memo) evictLocked() {
	for idle := 0; m.bound > 0 && len(m.entries) > m.bound && idle < 2*len(m.entries); {
		e := m.hand
		m.hand = e.next
		switch {
		case !e.done.Load():
			idle++
		case e.ref:
			e.ref = false
			idle++
		default:
			e.prev.next, e.next.prev = e.next, e.prev
			delete(m.entries, e.key)
			m.evictions.Add(1)
			idle = 0
		}
	}
}

// MemoKey builds the cache key of one proxy measurement: the benchmark name,
// the complete cluster configuration (architecture profile included), and
// the bit-exact canonical form of the tuning setting.  The whole
// configuration is fingerprinted — not just its name — because every field
// (sampling rate, modelling caps, memory capacity, cache geometry) changes
// simulation results, so two configurations must never alias in a shared
// memo.
func MemoKey(cluster *sim.Cluster, b *core.Benchmark, s core.Setting) string {
	return string(AppendMemoKey(nil, cluster, b, s))
}

// AppendMemoKey appends the memo key of one proxy measurement to dst and
// returns the extended slice, byte-identical to MemoKey.  The cluster's
// configuration fingerprint is cached at construction and the setting
// renders through AppendCanonical, so building a key into a reused buffer
// allocates nothing — which is what keeps a repeated, cache-answered
// /v1/run request allocation-free end to end.
func AppendMemoKey(dst []byte, cluster *sim.Cluster, b *core.Benchmark, s core.Setting) []byte {
	dst = append(dst, b.Name...)
	dst = append(dst, '|')
	dst = append(dst, cluster.Fingerprint()...)
	dst = append(dst, '|')
	return s.AppendCanonical(dst)
}

// Measure returns the metrics for key, executing run only if the key has
// never been measured.  fresh reports whether this call performed the
// simulation (false: the result came from the cache or another in-flight
// caller).  It is a one-key MeasureLanes, so errors — including a panic in
// run, which is re-raised after it is cached — are cached alongside results
// and a failing setting is not re-simulated either.
func (m *Memo) Measure(key string, run func() (perf.Metrics, error)) (metrics perf.Metrics, fresh bool, err error) {
	ms, fs, errs := m.MeasureLanes([]string{key}, func([]int) ([]perf.Metrics, error) {
		res, err := run()
		return []perf.Metrics{res}, err
	})
	return ms[0], fs[0], errs[0]
}

// MeasureLanes returns the metrics for every key of one batched evaluation,
// in key order, with per-lane errors.  It is the memo's one claim protocol:
// it claims all never-measured keys up front, hands their positions
// (indexes into keys) to run as ONE batched simulation, completes every
// claimed entry — on success, error and panic alike, so no lane's waiter
// ever hangs, whichever caller claimed its entry — and then waits for keys
// other callers have in flight.  fresh[i] reports whether this call
// executed key i's simulation; duplicate keys within one batch execute once
// (the first occurrence is fresh, the rest are memo hits).  errs[i] carries
// key i's own cached error (nil on success), so a caller fanning one merged
// sweep back to many independent waiters — the serve scheduler's
// cross-request coalescer — can fail exactly the lanes whose settings
// failed and answer the rest.
func (m *Memo) MeasureLanes(keys []string, run func(cold []int) ([]perf.Metrics, error)) ([]perf.Metrics, []bool, []error) {
	entries := make([]*memoEntry, len(keys))
	fresh := make([]bool, len(keys))
	var cold []int
	for i, k := range keys {
		e := m.entry(k)
		entries[i] = e
		if e.claimed.CompareAndSwap(false, true) {
			fresh[i] = true
			cold = append(cold, i)
		}
	}
	if len(cold) > 0 {
		m.runColdBatch(keys, entries, cold, run)
	}
	metrics := make([]perf.Metrics, len(keys))
	errs := make([]error, len(keys))
	for i, e := range entries {
		if !fresh[i] {
			// Cold entries completed above, so waiting here cannot deadlock
			// on entries this same call claimed (duplicate keys included).
			<-e.ready
		}
		metrics[i] = e.metrics
		errs[i] = e.err
	}
	return metrics, fresh, errs
}

// runColdBatch executes run over the claimed cold entries and completes
// every one of them — on success, on error and on panic alike — because a
// claimed entry that is never completed would hang its waiters forever.
func (m *Memo) runColdBatch(keys []string, entries []*memoEntry, cold []int, run func(cold []int) ([]perf.Metrics, error)) {
	// Entries in flight at an insertion may have held the memo over its
	// bound; completed, they count against it, so evict down to it again.
	defer func() {
		m.mu.Lock()
		m.evictLocked()
		m.mu.Unlock()
	}()
	defer func() {
		if r := recover(); r != nil {
			for _, i := range cold {
				e := entries[i]
				if !e.done.Load() {
					e.err = fmt.Errorf("tuner: measurement of %q panicked: %v", keys[i], r)
					e.complete()
				}
			}
			panic(r)
		}
	}()
	res, err := run(cold)
	if err == nil && len(res) != len(cold) {
		err = fmt.Errorf("tuner: batched measurement returned %d results for %d settings", len(res), len(cold))
	}
	for j, i := range cold {
		e := entries[i]
		if err != nil {
			e.err = err
		} else {
			e.metrics = res[j]
		}
		e.complete()
	}
}

// PeekBytes returns the completed measurement for key without blocking: ok
// is false when the key is not held or its first measurement is still in
// flight.  Finding the key is a hit and sets its reference bit; PeekBytes
// never evicts.  The serving layer uses it to answer repeated requests
// from the cache before spending an admission slot on them.  The lookup
// converts the key in place (the compiler elides the string copy for a map
// index), so answering a repeated request from the cache performs zero
// allocations.
func (m *Memo) PeekBytes(key []byte) (metrics perf.Metrics, ok bool, err error) {
	m.mu.Lock()
	e := m.entries[string(key)]
	if e != nil {
		e.ref = true
	}
	m.mu.Unlock()
	if e == nil || !e.done.Load() {
		return perf.Metrics{}, false, nil
	}
	return e.metrics, true, e.err
}

// Size returns the number of entries held, completed or in flight: for a
// memo without a bound, the distinct settings it ever measured.
func (m *Memo) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Evictions returns how many entries the bound has evicted so far.
func (m *Memo) Evictions() int64 { return m.evictions.Load() }

// ExportedEntry is one completed, successful measurement as exported by
// Export for snapshotting.
type ExportedEntry struct {
	// Key is the bit-exact memo key (MemoKey discipline).
	Key string
	// Metrics is the measured metric vector.
	Metrics perf.Metrics
}

// Export returns every completed, successful measurement sorted by key, so
// a snapshot of the same memo state is byte-deterministic.  In-flight
// entries and cached errors are deliberately ephemeral: an error caches the
// *attempt* so a failing setting is not hammered within one process
// lifetime, but a restart should retry it — and a half-measured entry has
// nothing durable to offer.
func (m *Memo) Export() []ExportedEntry {
	m.mu.Lock()
	out := make([]ExportedEntry, 0, len(m.entries))
	for key, e := range m.entries {
		if e.done.Load() && e.err == nil {
			out = append(out, ExportedEntry{Key: key, Metrics: e.metrics})
		}
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ExportLimited returns up to max completed, successful measurements whose
// keys the skip predicate (nil: keep everything) does not reject, in key
// order.  It is the bounded form of Export used by the serving layer's
// anti-entropy gossip: each exchange offers a peer at most one batch of
// entries it has not acknowledged yet, so a large cache drains over several
// rounds instead of one unbounded push.
func (m *Memo) ExportLimited(max int, skip func(key string) bool) []ExportedEntry {
	if max <= 0 {
		return nil
	}
	all := m.Export()
	out := make([]ExportedEntry, 0, min(max, len(all)))
	for _, e := range all {
		if skip != nil && skip(e.Key) {
			continue
		}
		out = append(out, e)
		if len(out) == max {
			break
		}
	}
	return out
}

// Restore pre-completes key with a previously exported measurement, so a
// warm-started memo answers PeekBytes (and absorbs Measure calls as hits)
// exactly as the memo the snapshot was taken from.  It reports whether the
// entry was installed: a key that already exists — measured, claimed or
// restored earlier — is left untouched, so a live measurement always beats
// a stale import.  An installed entry is an insertion, so a bounded memo
// may evict to make room for it.
func (m *Memo) Restore(key string, metrics perf.Metrics) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.entries[key]; exists {
		return false
	}
	e := &memoEntry{ready: make(chan struct{})}
	e.claimed.Store(true)
	e.metrics = metrics
	e.complete()
	m.insertLocked(key, e)
	return true
}
