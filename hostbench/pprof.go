package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// CPU-profile bucketing, read back offline from what runtime/pprof
// wrote: a gzipped profile.proto decoded here with a minimal protobuf
// reader, so the benchmark needs nothing beyond the standard library.
// Each sample's self time goes to the bucket of its leaf frame.

var buckets = []string{
	"sim", "kern", "netif", "hpc", "channels", "objmgr", "vchan", "verify", "fault", "core",
	"fmt", "runtime_gc", "runtime_sched", "runtime_malloc", "other",
}

// layerPackages are the simulator packages with a bucket of their own.
var layerPackages = map[string]bool{
	"sim": true, "kern": true, "netif": true, "hpc": true, "channels": true,
	"objmgr": true, "vchan": true, "verify": true, "fault": true, "core": true,
}

// pbuf is a cursor over protobuf wire data.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = fmt.Errorf("pprof: varint overflow")
	return 0
}

// field reads the next tag and returns its number, wire type, and (for
// length-delimited fields) its bytes or (for varints) its value.
func (p *pbuf) field() (num int, wire int, val uint64, data []byte) {
	tag := p.varint()
	num, wire = int(tag>>3), int(tag&7)
	switch wire {
	case 0:
		val = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = io.ErrUnexpectedEOF
			return
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("pprof: wire type %d", wire)
	}
	return
}

// uints appends a repeated uint64 field, packed or not.
func uints(dst []uint64, wire int, val uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, val)
	}
	q := pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst
}

type profSample struct {
	locs  []uint64
	value int64 // last sample value: CPU nanoseconds
}

// profile is the subset of profile.proto the bucketing needs: samples
// as location stacks (leaf first), locations as function stacks
// (innermost inlined function first), function names.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	pr := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	p := pbuf{b: b}
	for len(p.b) > 0 && p.err == nil {
		num, _, _, data := p.field()
		switch num {
		case 2: // sample
			var s profSample
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, w, v, d := q.field()
				switch n {
				case 1:
					s.locs = uints(s.locs, w, v, d)
				case 2:
					vs := uints(nil, w, v, d)
					if len(vs) > 0 {
						s.value = int64(vs[len(vs)-1])
					}
				}
			}
			pr.samples = append(pr.samples, s)
			p.err = q.err
		case 4: // location
			var id uint64
			var fns []uint64
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, _, v, d := q.field()
				switch n {
				case 1:
					id = v
				case 4: // line
					r := pbuf{b: d}
					for len(r.b) > 0 && r.err == nil {
						if ln, _, lv, _ := r.field(); ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			pr.locs[id] = fns
			p.err = q.err
		case 5: // function
			var id uint64
			var name int64
			q := pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			pr.funcs[id] = name
			p.err = q.err
		case 6: // string_table
			pr.strs = append(pr.strs, string(data))
		}
	}
	return pr, p.err
}

// stack returns a sample's function names, leaf first.
func (pr *profile) stack(s profSample) []string {
	var out []string
	for _, l := range s.locs {
		for _, f := range pr.locs[l] {
			if i := pr.funcs[f]; i >= 0 && int(i) < len(pr.strs) {
				out = append(out, pr.strs[i])
			}
		}
	}
	return out
}

// pkgOf returns the import path of a symbol such as
// "hpcvorx/internal/sim.(*Kernel).Run" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync/atomic" || pkg == "internal/abi"
}

// runtimeBucket classifies a runtime leaf by the nearest frame, walking
// up from the leaf, that says what the runtime was doing for whom.
func runtimeBucket(stack []string) string {
	for _, fn := range stack {
		name := strings.TrimPrefix(fn, "runtime.")
		switch {
		case strings.HasPrefix(name, "gcBgMarkWorker"), strings.HasPrefix(name, "gcAssist"),
			strings.HasPrefix(name, "gcDrain"), strings.HasPrefix(name, "markroot"),
			strings.HasPrefix(name, "bgsweep"), strings.HasPrefix(name, "bgscavenge"),
			strings.HasPrefix(name, "gcStart"), strings.HasPrefix(name, "gcMarkDone"),
			name == "scanobject", name == "sweepone", name == "GC":
			return "runtime_gc"
		case name == "mallocgc", name == "newobject", name == "makeslice", name == "growslice",
			name == "makemap", name == "makemap_small", name == "newarray", name == "makechan":
			return "runtime_malloc"
		case strings.HasPrefix(name, "concatstring"), name == "slicebytetostring",
			name == "intstring", pkgOf(fn) == "fmt", pkgOf(fn) == "strconv":
			return "fmt"
		case name == "chansend", name == "chanrecv", name == "chansend1", name == "chanrecv1",
			name == "selectgo", name == "gopark", name == "goready", name == "schedule",
			name == "findRunnable", name == "park_m", name == "mcall", name == "Gosched",
			name == "gosched_m", name == "goschedImpl", name == "notewakeup", name == "notesleep",
			name == "wakep", name == "startm", name == "stopm", name == "ready", name == "usleep",
			name == "osyield", name == "futexsleep", name == "futexwakeup", name == "goexit0":
			return "runtime_sched"
		}
	}
	return "other"
}

// bucketOf assigns one sample stack (leaf first) to a bucket.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := pkgOf(stack[0])
	switch {
	case strings.HasPrefix(pkg, "hpcvorx/internal/"):
		if l := strings.TrimPrefix(pkg, "hpcvorx/internal/"); layerPackages[l] {
			return l
		}
		return "other"
	case pkg == "fmt", pkg == "strconv":
		return "fmt"
	case isRuntime(pkg):
		return runtimeBucket(stack)
	}
	return "other"
}

// bucketTimes adds a profile's self time per bucket into acc.
func bucketTimes(raw []byte, acc map[string]float64) error {
	pr, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range pr.samples {
		acc[bucketOf(pr.stack(s))] += float64(s.value)
	}
	return nil
}
