package tuner

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dataproxy/internal/perf"
	"dataproxy/internal/snapshot"
)

// randomMetrics fills a metric vector with randomized (finite, in-range)
// values, including awkward floats a lossy codec would mangle.
func randomMetrics(rng *rand.Rand) perf.Metrics {
	var m perf.Metrics
	for _, name := range perf.MetricNames {
		v := rng.Float64() * 1e9
		if rng.Intn(3) == 0 {
			v = rng.Float64() // small ratios with many mantissa bits
		}
		if err := m.Set(name, v); err != nil {
			panic(err)
		}
	}
	return m
}

// TestMemoSnapshotRoundTripBitIdentical is the durability property of the
// issue: exporting a memo, encoding it through the snapshot codec, and
// restoring it into a fresh memo yields a memo that answers PeekBytes with
// the exact metric JSON bytes the original would.
func TestMemoSnapshotRoundTripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	orig := NewMemo()
	keys := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("bench|cluster%d|setting=%g", i%5, rng.Float64())
		keys = append(keys, key)
		m := randomMetrics(rng)
		if _, _, err := orig.Measure(key, func() (perf.Metrics, error) { return m, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// A cached error is process-local state: it must not be exported.
	if _, _, err := orig.Measure("bench|failing", func() (perf.Metrics, error) {
		return perf.Metrics{}, errors.New("boom")
	}); err == nil {
		t.Fatal("error measurement not cached")
	}

	exported := orig.Export()
	if len(exported) != len(keys) {
		t.Fatalf("exported %d entries, want %d (errors are ephemeral)", len(exported), len(keys))
	}
	if !sort.SliceIsSorted(exported, func(i, j int) bool { return exported[i].Key < exported[j].Key }) {
		t.Fatal("Export is not sorted by key")
	}

	// Through the codec: the wire metrics are the canonical JSON bytes.
	st := &snapshot.State{}
	for _, e := range exported {
		data, err := e.Metrics.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		st.MemoEntries = append(st.MemoEntries, snapshot.MemoEntry{Key: e.Key, Metrics: data})
	}
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}

	restored := NewMemo()
	for _, e := range decoded.MemoEntries {
		var m perf.Metrics
		if err := m.UnmarshalJSON(e.Metrics); err != nil {
			t.Fatal(err)
		}
		if !restored.Restore(e.Key, m) {
			t.Fatalf("Restore rejected fresh key %q", e.Key)
		}
	}

	for _, key := range keys {
		want, ok, err := orig.PeekBytes([]byte(key))
		if !ok || err != nil {
			t.Fatalf("original PeekBytes(%q) = ok %v err %v", key, ok, err)
		}
		got, ok, err := restored.PeekBytes([]byte(key))
		if !ok || err != nil {
			t.Fatalf("restored PeekBytes(%q) = ok %v err %v", key, ok, err)
		}
		wantJSON, _ := want.MarshalJSON()
		gotJSON, _ := got.MarshalJSON()
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("restored metrics for %q differ:\nwant %s\ngot  %s", key, wantJSON, gotJSON)
		}
	}
	// The failing key stays cold on the restored memo: the restart retries.
	if _, ok, _ := restored.PeekBytes([]byte("bench|failing")); ok {
		t.Fatal("cached error survived the snapshot")
	}
}

// TestMemoRestoreSemantics pins the Restore contract: restored entries are
// memo hits for Measure, live entries are never overwritten, and restoring
// the same key twice is a no-op.
func TestMemoRestoreSemantics(t *testing.T) {
	m := NewMemo()
	if !m.Restore("k", perf.Metrics{Runtime: 1}) {
		t.Fatal("Restore rejected a fresh key")
	}
	if m.Restore("k", perf.Metrics{Runtime: 2}) {
		t.Fatal("Restore overwrote an existing entry")
	}
	got, fresh, err := m.Measure("k", func() (perf.Metrics, error) {
		t.Fatal("restored entry was re-measured")
		return perf.Metrics{}, nil
	})
	if err != nil || fresh {
		t.Fatalf("Measure on restored entry: fresh=%v err=%v", fresh, err)
	}
	if got.Runtime != 1 {
		t.Fatalf("restored runtime %g, want 1", got.Runtime)
	}

	// A measured entry blocks restore.
	if _, _, err := m.Measure("live", func() (perf.Metrics, error) { return perf.Metrics{Runtime: 9}, nil }); err != nil {
		t.Fatal(err)
	}
	if m.Restore("live", perf.Metrics{Runtime: 3}) {
		t.Fatal("Restore replaced a live measurement")
	}
	if got, _, _ := m.PeekBytes([]byte("live")); got.Runtime != 9 {
		t.Fatalf("live entry clobbered: runtime %g", got.Runtime)
	}
	if m.Size() != 2 {
		t.Fatalf("memo size %d, want 2", m.Size())
	}
}
