// Package tuple defines the Wisconsin-benchmark tuple layout used throughout
// the reproduction: thirteen 4-byte integer attributes followed by three
// 52-byte string attributes, 208 bytes per tuple, exactly as in Bitton,
// DeWitt & Turbyfill (VLDB 1983) and as used by Schneider & DeWitt (1989).
package tuple

import (
	"encoding/binary"
	"fmt"
)

// Layout constants.
const (
	NumInts = 13 // number of 4-byte integer attributes
	NumStrs = 3  // number of string attributes
	StrLen  = 52 // bytes per string attribute

	// Bytes is the storage size of one tuple (208 bytes).
	Bytes = NumInts*4 + NumStrs*StrLen

	// JoinedBytes is the size of one composite join-result tuple (416
	// bytes; the 10,000-tuple joinABprime result is "over 4 megabytes").
	JoinedBytes = 2 * Bytes
)

// Integer attribute indices (Wisconsin benchmark names). Unique3 doubles as
// the non-uniform ("normal") join attribute in the skew experiments of the
// paper's Section 4.4: relations built for those experiments store a
// normal(50000, 750) variate in this slot.
const (
	Unique1 = iota
	Unique2
	Two
	Four
	Ten
	Twenty
	OnePercent
	TenPercent
	TwentyPercent
	FiftyPercent
	Unique3
	EvenOnePercent
	OddOnePercent
)

// Normal is an alias for the attribute slot holding the non-uniformly
// distributed join attribute in skew experiments.
const Normal = Unique3

// IntAttrNames lists the integer attribute names, indexed by the constants
// above.
var IntAttrNames = [NumInts]string{
	"unique1", "unique2", "two", "four", "ten", "twenty",
	"onePercent", "tenPercent", "twentyPercent", "fiftyPercent",
	"unique3", "evenOnePercent", "oddOnePercent",
}

// StrAttrNames lists the string attribute names.
var StrAttrNames = [NumStrs]string{"stringu1", "stringu2", "string4"}

// AttrIndex returns the integer-attribute index for a Wisconsin attribute
// name, or an error if the name is unknown or names a string attribute.
func AttrIndex(name string) (int, error) {
	for i, n := range IntAttrNames {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("tuple: unknown integer attribute %q", name)
}

// Tuple is one Wisconsin-benchmark record.
type Tuple struct {
	Ints [NumInts]int32
	Strs [NumStrs][StrLen]byte
}

// Int returns integer attribute i.
func (t *Tuple) Int(i int) int32 { return t.Ints[i] }

// SetInt sets integer attribute i.
func (t *Tuple) SetInt(i int, v int32) { t.Ints[i] = v }

// Marshal appends the 208-byte wire encoding of t to dst and returns the
// extended slice. Integers are little-endian.
func (t *Tuple) Marshal(dst []byte) []byte {
	var buf [4]byte
	for _, v := range t.Ints {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		dst = append(dst, buf[:]...)
	}
	for i := range t.Strs {
		dst = append(dst, t.Strs[i][:]...)
	}
	return dst
}

// Unmarshal decodes a tuple from the first Bytes bytes of src.
func (t *Tuple) Unmarshal(src []byte) error {
	if len(src) < Bytes {
		return fmt.Errorf("tuple: short buffer: %d < %d", len(src), Bytes)
	}
	for i := range t.Ints {
		t.Ints[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
	off := NumInts * 4
	for i := range t.Strs {
		copy(t.Strs[i][:], src[off:off+StrLen])
		off += StrLen
	}
	return nil
}

// String renders a compact description (unique1/unique2 only).
func (t *Tuple) String() string {
	return fmt.Sprintf("Tuple{unique1:%d unique2:%d}", t.Ints[Unique1], t.Ints[Unique2])
}

// Joined is a composite join-result tuple: the concatenation of an inner
// and an outer tuple (416 bytes on the wire).
type Joined struct {
	Inner Tuple
	Outer Tuple
}

// PairChecksum folds a joined pair's integer attributes into a 64-bit
// value, reading the two sides in place so emitters can checksum a match
// without materializing the composite tuple. The per-tuple hashes are
// combined with a mixing chain, so two different result tuples almost never
// collide, while summing checksums over a result set is order-independent —
// which is what lets concurrent and serial executions of the same query be
// compared tuple-for-tuple without collecting either result set (see
// Report.ResultSum in internal/core).
func PairChecksum(inner, outer *Tuple) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	fold := func(t *Tuple) {
		for _, v := range t.Ints {
			h ^= uint64(uint32(v))
			h *= 0xBF58476D1CE4E5B9
			h ^= h >> 29
		}
	}
	fold(inner)
	fold(outer)
	h *= 0x94D049BB133111EB
	return h ^ (h >> 32)
}
