package sim

import (
	"bytes"
	"testing"

	"dataproxy/internal/arch"
)

// refLoadStore is a naive statement of the sampling rule Exec.access
// implements, written without any of its code: counters first, then the
// run's cache lines probed one by one and folded into the data sample.
//
//   - A zero-size region pins every offset to its base: one probe.
//   - A run of more lines than the cap probes cap lines, probe i at the
//     run's line i*lines/cap, and stands for its share of the word ops.
//   - Otherwise the run is walked byte by byte.  A byte opens a new probe
//     when it lies in another line than the byte before it, or when the
//     run wraps to the region's start; after cap wraps the walk stops and
//     the sample stands for the walked share of the word ops.
//
// The sample never stands for fewer word ops than it has probes.
func refLoadStore(e *Exec, r Region, off, size uint64, write bool) {
	ops := size / 8
	if ops == 0 {
		ops = 1
	}
	if write {
		e.counters.StoreInstrs += ops
	} else {
		e.counters.LoadInstrs += ops
	}
	e.counters.L1DAccesses += ops
	e.countInstr(ops)

	l1 := e.core.Caches.L1D
	lineBytes := uint64(l1.Config().LineBytes)
	memLineBytes := uint64(e.core.Caches.L3.Config().LineBytes)
	probe := func(addr uint64) {
		lvl := l1.AccessLine(addr, write)
		if lvl >= 1 {
			e.data.l1Miss++
			e.data.l2Acc++
		}
		if lvl >= 2 {
			e.data.l2Miss++
			e.data.l3Acc++
		}
		if lvl >= l1.Depth() {
			e.data.l3Miss++
			e.data.memRead += memLineBytes
			if write {
				e.data.memWrite += memLineBytes
			}
		}
	}

	if r.Size() == 0 {
		probe(r.base)
		e.data.accesses += ops
		return
	}
	limit := uint64(e.cfg.MaxModelOpsPerCall)
	lines := (size + lineBytes - 1) / lineBytes
	if lines == 0 {
		lines = 1
	}
	if lines > limit {
		for i := uint64(0); i < limit; i++ {
			probe(r.base + (off+(i*lines/limit)*lineBytes)%r.Size())
		}
		e.data.accesses += max(ops*limit/lines, limit)
		return
	}

	var probes, walked, wraps uint64
	prevLine := ^uint64(0)
	for i := uint64(0); i < size; i++ {
		at := (off + i) % r.Size()
		if i == 0 || at == 0 {
			wraps++
			if wraps > limit {
				break
			}
			prevLine = ^uint64(0)
		}
		if line := (r.base + at) / lineBytes; line != prevLine {
			probe(line * lineBytes)
			probes++
			prevLine = line
		}
		walked++
	}
	covered := ops
	if walked < size {
		covered = ops * walked / size
	}
	e.data.accesses += max(covered, probes)
}

// TestExecAccessMatchesLineReference drives Exec.Load and Exec.Store on one
// cluster and refLoadStore on its twin with the same runs, and requires equal
// data and instruction samples after every run, equal counters after
// finish, and equal cache and predictor state, on both profiles.  The runs
// cover regions below, at and off a line multiple, offsets at and past the
// region's end, runs that stay in one line, straddle lines, wrap, are cut
// off by the wrap cap or exceed the line cap, and the zero-value Region.
func TestExecAccessMatchesLineReference(t *testing.T) {
	for name, p := range map[string]arch.Profile{"westmere": arch.Westmere(), "haswell": arch.Haswell()} {
		t.Run(name, func(t *testing.T) {
			got, want := MustNewCluster(SingleNode(p, 0)), MustNewCluster(SingleNode(p, 0))
			gn, wn := got.Nodes()[0], want.Nodes()[0]
			ge, we := newExec(gn, 0), newExec(wn, 0)

			regions := []Region{{}}
			for _, sz := range []uint64{1, 8, 40, 64, 100, 128, 200, 4096 + 24} {
				r := gn.Alloc(sz)
				if wr := wn.Alloc(sz); wr != r {
					t.Fatalf("twin clusters allocated %+v and %+v", r, wr)
				}
				regions = append(regions, r)
			}
			runs := []uint64{0, 1, 7, 8, 63, 64, 65, 300, 4096, 32 << 10, 40 << 10}
			n := 0
			for _, r := range regions {
				offs := []uint64{0, 1, 7, 56, 63, 64, 97}
				if r.Size() > 0 {
					offs = append(offs, r.Size()-1, r.Size(), r.Size()+5, 3*r.Size()+9)
				}
				for _, off := range offs {
					for _, size := range runs {
						write := n%3 == 1
						n++
						if write {
							ge.Store(r, off, size)
						} else {
							ge.Load(r, off, size)
						}
						refLoadStore(we, r, off, size, write)
						if ge.data != we.data || ge.instr != we.instr || ge.counters != we.counters {
							t.Fatalf("region %+v off %d size %d write=%v:\n data %+v, reference %+v\n instr %+v, reference %+v\n counters %+v\n reference %+v",
								r, off, size, write, ge.data, we.data, ge.instr, we.instr, ge.counters, we.counters)
						}
					}
				}
			}
			ge.finish()
			we.finish()
			if ge.counters != we.counters {
				t.Fatalf("finished counters diverge:\n got %+v\nwant %+v", ge.counters, we.counters)
			}
			if !bytes.Equal(gn.Machine().AppendState(nil), wn.Machine().AppendState(nil)) {
				t.Fatal("cache or predictor state diverges from the reference's")
			}
		})
	}
}
