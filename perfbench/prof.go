package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profBuckets are the package groups CPU samples fold into, in the order
// they are reported as prof.<bucket>_share.
// The syscall bucket holds samples whose leaf is a system call wrapper
// (file and socket I/O, fsync); runtime holds the scheduler, the
// allocator and the garbage collector.
var profBuckets = []string{"network", "mdp", "machine", "mem", "queue", "serve", "ckpt", "runtime", "syscall", "other"}

// cpuProfile accumulates the flat (leaf-function) CPU samples of one or
// more profiled intervals, folded by package bucket.
type cpuProfile struct {
	samples map[string]int64
	buf     bytes.Buffer
}

func newCPUProfile() *cpuProfile { return &cpuProfile{samples: make(map[string]int64)} }

// start begins a profiled interval.
func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the interval and folds its samples in.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return foldProfile(p.buf.Bytes(), p.samples)
}

// shares returns prof.<bucket>_share for every bucket. Too short an
// interval yields no samples, which is an error: the shares would be
// undefined.
func (p *cpuProfile) shares(into map[string]float64) error {
	total := int64(0)
	for _, n := range p.samples {
		total += n
	}
	if total == 0 {
		return errors.New("cpu profile holds no samples")
	}
	for _, b := range profBuckets {
		into["prof."+b+"_share"] = float64(p.samples[b]) / float64(total)
	}
	return nil
}

// bucketOf maps a fully qualified Go function name to its bucket.
func bucketOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: the type list may hold paths
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		pkg = fn[:slash+1+i]
	}
	if name, ok := strings.CutPrefix(pkg, "jmachine/internal/"); ok {
		name, _, _ = strings.Cut(name, "/") // ckpt/wire folds into ckpt
		for _, b := range profBuckets {
			if name == b {
				return b
			}
		}
		return "other"
	}
	if pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/syscall/unix" {
		return "syscall"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// foldProfile decodes a gzipped pprof protobuf (as runtime/pprof writes
// it) and adds each sample's count to the bucket of its leaf function:
// the innermost inlined frame of the sample's first location.
func foldProfile(data []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location id -> leaf function id
		fnName   = map[uint64]int64{}  // function id -> string table index
		strTable []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = pbAppendUints(locs, v, b)
				case 2:
					for _, x := range pbAppendUints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], count: vals[0]})
			}
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id, fn uint64
			seenLine := false
			err := pbFields(b, func(f int, v uint64, b []byte) error {
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
			})
			if err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function: id = 1, name = 2
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strTable = append(strTable, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		name := ""
		if i, ok := fnName[locFn[s.loc]]; ok && i >= 0 && int(i) < len(strTable) {
			name = strTable[i]
		}
		into[bucketOf(name)] += s.count
	}
	return nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited
// bytes. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed field")
			}
			b = b[w:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbAppendUints appends a repeated integer field, packed (bytes) or not.
func pbAppendUints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
