package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch; parent is the index of the enclosing span or -1; op is
// the benchmark op the span belongs to, 0 when unknown.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
}

// tracer keeps the spans of a traced run in memory; write saves them when
// the run ends. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// open starts a span and returns its index for close.
func (t *tracer) open(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, s)
		}
	}
	return out
}

// write saves every span as gzipped tab-separated lines
// (name, start_ns, end_ns, parent, op).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.op)
	}
	t.mu.Unlock()
	err = errors.Join(bw.Flush(), zw.Close())
	return errors.Join(err, f.Close())
}

// traced wraps a mounted handler with a span per request, recorded while
// slot holds the tracer of a traced phase. The router does not forward
// request ids, so handler spans carry no op.
func traced(name string, slot *atomic.Pointer[tracer], h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := slot.Load()
		id := t.open(name, -1, 0)
		h.ServeHTTP(w, r)
		t.close(id)
	})
}

// busy returns how long layer spans kept client calls waiting: the integral
// over time of min(active layer spans, active client spans). Parallel
// sub-requests of one client call therefore count once, while the calls of
// concurrent connections each count.
func busy(layer, client []span) time.Duration {
	type edge struct {
		at           int64
		dLayer, dCli int
	}
	edges := make([]edge, 0, 2*(len(layer)+len(client)))
	for _, s := range layer {
		edges = append(edges, edge{s.start, 1, 0}, edge{s.end, -1, 0})
	}
	for _, s := range client {
		edges = append(edges, edge{s.start, 0, 1}, edge{s.end, 0, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var total, prev int64
	var nLayer, nCli int
	for _, e := range edges {
		total += int64(min(nLayer, nCli)) * (e.at - prev)
		prev = e.at
		nLayer += e.dLayer
		nCli += e.dCli
	}
	return time.Duration(total)
}

func spanSum(spans []span) time.Duration {
	var d int64
	for _, s := range spans {
		d += s.end - s.start
	}
	return time.Duration(d)
}

// cpuLayers maps each per-layer CPU metric to the packages whose own frames
// it counts.
var cpuLayers = []struct {
	metric string
	pkgs   []string
}{
	{"cpu.arch", []string{"dataproxy/internal/arch"}},
	{"cpu.sim", []string{"dataproxy/internal/sim"}},
	{"cpu.motif", []string{"dataproxy/internal/motif", "dataproxy/internal/aimotif"}},
	{"cpu.core", []string{"dataproxy/internal/core"}},
	{"cpu.tuner", []string{"dataproxy/internal/tuner", "dataproxy/internal/dtree"}},
	{"cpu.serve", []string{"dataproxy/internal/serve"}},
	{"cpu.fleet", []string{"dataproxy/internal/fleet"}},
	{"cpu.json", []string{"encoding/json"}},
	{"cpu.net", []string{"net", "net/http", "net/textproto", "internal/poll", "syscall", "internal/syscall/unix", "internal/runtime/syscall"}},
	{"cpu.runtime", []string{"runtime", "internal/runtime/*"}},
}

// layerOf returns the per-layer CPU metric a package's self time counts
// toward, or "" for packages outside every layer.
func layerOf(pkg string) string {
	for _, l := range cpuLayers {
		for _, p := range l.pkgs {
			if p == pkg || (strings.HasSuffix(p, "/*") && strings.HasPrefix(pkg, p[:len(p)-1])) {
				return l.metric
			}
		}
	}
	return ""
}

// pkgOf returns the import path of a profiled function name such as
// "dataproxy/internal/arch.(*Cache).probe".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// selfCPU decodes a gzipped pprof CPU profile and returns the CPU time of
// each package's own frames: every sample is charged to the function of its
// innermost frame.
func selfCPU(profile []byte) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("reading cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading cpu profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{} // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		leafCPU  = map[uint64]int64{}  // location id -> cpu nanoseconds
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var locs, vals []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					locs, err = pbPacked(locs, v, b)
				case 2:
					vals, err = pbPacked(vals, v, b)
				}
				return err
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				leafCPU[locs[0]] += int64(vals[len(vals)-1])
			}
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id, fn uint64
			var seenLine bool
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !seenLine:
					seenLine = true
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding cpu profile: %w", err)
	}
	out := map[string]time.Duration{}
	for loc, ns := range leafCPU {
		name := "?"
		if i := funcName[locFunc[loc]]; int(i) < len(strs) {
			name = strs[i]
		}
		out[pkgOf(name)] += time.Duration(ns)
	}
	return out, nil
}

// pbFields calls fn for every field of a protobuf message: v holds a varint
// or fixed value, b the bytes of a length-delimited field.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("truncated fixed field")
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated bytes field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbPacked appends a repeated varint field, which the encoder writes either
// one value per field or packed into one bytes field.
func pbPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
