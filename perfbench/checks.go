package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"dataproxy/internal/perf"
	"dataproxy/internal/tuner"
	"dataproxy/pkg/client"
)

// checkTuned verifies one qualified proxy: its metrics are within the model's
// ranges and comparing them with the target reproduces the tuner's report.
func checkTuned(target perf.Metrics, res tuner.Result) error {
	if err := res.ProxyMetrics.Validate(); err != nil {
		return fmt.Errorf("tuned proxy metrics: %w", err)
	}
	want := perf.CompareMetrics(target, res.ProxyMetrics, nil)
	if len(want.PerMetric) != len(res.Report.PerMetric) {
		return fmt.Errorf("report has %d metrics, comparison %d", len(res.Report.PerMetric), len(want.PerMetric))
	}
	for name, acc := range want.PerMetric {
		if got, ok := res.Report.PerMetric[name]; !ok || got != acc {
			return fmt.Errorf("report accuracy of %s is %v, comparison gives %v", name, got, acc)
		}
	}
	return nil
}

// checkBatch verifies a batch response and returns how many of its settings
// failed: a missing result fails its setting, as does a result answered from
// cache or whose metric vector is out of range.
func checkBatch(sent int, resp *client.RunBatchResponse) (failed int, err error) {
	if len(resp.Results) != sent {
		err = fmt.Errorf("batch of %d settings returned %d results", sent, len(resp.Results))
		failed = max(sent-len(resp.Results), 0)
	}
	for i, r := range resp.Results[:min(sent, len(resp.Results))] {
		if rerr := checkFresh(r); rerr != nil {
			failed++
			if err == nil {
				err = fmt.Errorf("result %d: %w", i, rerr)
			}
		}
	}
	return failed, err
}

func checkFresh(r client.RunResult) error {
	if r.Coalesced {
		return fmt.Errorf("answered from cache")
	}
	_, err := decodeMetrics(r.Metrics)
	return err
}

// checkHit verifies a warm read: it must come from cache with the canonical
// metric bytes the warm-up received for the same setting.
func checkHit(resp *client.RunResponse, want []byte) error {
	if !resp.Coalesced {
		return fmt.Errorf("cache miss")
	}
	if got := canonical(resp.Metrics); !bytes.Equal(got, want) {
		return fmt.Errorf("metric bytes %s differ from warm-up bytes %s", got, want)
	}
	return nil
}

// canonical returns the compact encoding of a metric vector. Responses may
// be indented, depending on whether the router relayed or re-encoded them;
// the compact form is what perf.Metrics encodes.
func canonical(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw // not JSON: left as is, so it matches nothing valid
	}
	return b.Bytes()
}

// decodeMetrics decodes a metric vector and checks it is within range.
func decodeMetrics(raw []byte) (perf.Metrics, error) {
	var m perf.Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, err
	}
	return m, m.Validate()
}

// digest accumulates the canonical metric bytes of simulated results, so two
// runs that simulated the same statistics print the same digest.
type digest struct {
	h hash.Hash
	n int
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(canonical []byte) {
	d.h.Write(canonical)
	d.h.Write([]byte{'\n'})
	d.n++
}

func (d *digest) addMetrics(m perf.Metrics) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	d.add(b)
	return nil
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
