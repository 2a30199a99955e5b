package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// layerModules are the repository modules a join or update can execute
// in: the internal packages internal/core depends on, plus the generator.
// Their order is the order the ledger prints them in.
var layerModules = []string{
	"bitfilter", "core", "cost", "disk", "fault", "gamma", "netsim",
	"pred", "split", "trace", "tuple", "wisconsin", "wiss", "xrand",
}

// Profile buckets besides the per-module "<module>.host_share" ones.
const (
	bucketCopy     = "runtime.copy_share"  // leaf frame is duffcopy or memmove
	bucketAlloc    = "runtime.alloc_share" // leaf frame is the heap allocator
	bucketGC       = "runtime.gc_share"    // background GC workers
	bucketOther    = "runtime.other_share" // no repository frame on the stack
	bucketInternal = "internal.other_share"
)

// foldBuckets lists every bucket foldProfile can assign a sample to.
func foldBuckets() []string {
	out := []string{bucketCopy, bucketAlloc, bucketGC, bucketOther, bucketInternal}
	for _, m := range layerModules {
		out = append(out, m+".host_share")
	}
	return out
}

// folded is a CPU profile folded into buckets.
type folded struct {
	shares  map[string]float64 // each bucket's share of the sampled CPU
	samples int64
	sum     float64 // bucketed weight over total weight: 1 unless a sample was lost
}

// foldProfile reads a gzip-compressed pprof CPU profile and assigns each
// sample to exactly one bucket, in this order of precedence: background GC
// anywhere on the stack; a copy or allocator leaf frame; the innermost
// gammajoin/internal/<module> frame; else runtime.other.
func foldProfile(gz []byte) (folded, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return folded{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return folded{}, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return folded{}, err
	}
	modules := map[string]bool{}
	for _, m := range layerModules {
		modules[m] = true
	}
	weights := map[string]int64{}
	var total, samples int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		frames, leafN := p.frames(s.locs)
		b := classify(frames, leafN, modules)
		weights[b] += s.values[0]
		total += s.values[0]
		samples++
	}
	f := folded{shares: map[string]float64{}, samples: samples}
	var bucketed int64
	for _, b := range foldBuckets() {
		f.shares[b] = div(float64(weights[b]), float64(total))
		bucketed += weights[b]
	}
	f.sum = div(float64(bucketed), float64(total))
	return f, nil
}

// classify picks the bucket of one sample. frames lists function names
// leaf first; the first leafN of them belong to the leaf location (the
// physical frame and the functions inlined into it).
func classify(frames []string, leafN int, modules map[string]bool) string {
	for _, f := range frames {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			return bucketGC
		}
	}
	for _, f := range frames[:leafN] {
		if f == "runtime.duffcopy" || f == "runtime.memmove" {
			return bucketCopy
		}
		if strings.HasPrefix(f, "runtime.mallocgc") {
			return bucketAlloc
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "gammajoin/internal/"); ok {
			m := rest
			if i := strings.IndexAny(m, "./"); i >= 0 {
				m = m[:i]
			}
			if modules[m] {
				return m + ".host_share"
			}
			return bucketInternal
		}
	}
	return bucketOther
}

// profile is the part of a pprof profile.proto the fold needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// frames expands location ids into function names, leaf first, and
// returns how many of them belong to the leaf location.
func (p *profile) frames(locs []uint64) (names []string, leafN int) {
	for i, l := range locs {
		for _, fid := range p.locations[l] {
			name := ""
			if si := p.functions[fid]; si >= 0 && si < int64(len(p.strings)) {
				name = p.strings[si]
			}
			names = append(names, name)
		}
		if i == 0 {
			leafN = len(names)
		}
	}
	return names, leafN
}

var errProto = errors.New("perfbench: malformed profile")

// parseProfile decodes the fields of profile.proto the fold reads:
// sample = 2, location = 4, function = 5, string_table = 6.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := protoFields(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := protoFields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, data)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, wire, v, data); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return protoFields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			name := int64(-1)
			err := protoFields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// protoFields walks the fields of one protobuf message, calling fn with
// each field's number, wire type, and either its varint value or its
// length-delimited payload. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
