// Package ip provides the address and prefix types used throughout the
// distributed-IP-lookup (clue routing) library.
//
// Addresses are stored left-aligned in 128 bits so that "bit i" (i = 0 is
// the most significant bit) has the same meaning for IPv4 and IPv6: an IPv4
// address occupies bits 0..31 and the remaining 96 bits are zero. This
// representation keeps the bit arithmetic used by tries, binary search over
// prefix endpoints, and clue encoding uniform across families, which is what
// the paper relies on when it argues the scheme scales from the 5-bit IPv4
// clue to the 7-bit IPv6 clue.
package ip

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Family identifies the address family of an Addr or Prefix.
type Family uint8

// Address families.
const (
	IPv4 Family = iota
	IPv6
)

// Width returns the address width W in bits: 32 for IPv4, 128 for IPv6.
// W is the worst-case cost of the classic bit-by-bit trie lookup and the
// range of the Log W binary search on prefix lengths.
func (f Family) Width() int {
	if f == IPv4 {
		return 32
	}
	return 128
}

// ClueBits returns the number of header bits needed to encode a clue for
// this family: 5 bits encode lengths 0..32 minus the always-implied values
// (the paper uses 5 bits for IPv4 and 7 for IPv6).
func (f Family) ClueBits() int {
	if f == IPv4 {
		return 5
	}
	return 7
}

// String implements fmt.Stringer.
func (f Family) String() string {
	if f == IPv4 {
		return "IPv4"
	}
	return "IPv6"
}

// Addr is an IP address of either family, stored left-aligned in 128 bits.
// The zero value is the IPv4 address 0.0.0.0.
//
// Addr is comparable and usable as a map key.
type Addr struct {
	hi, lo uint64
	fam    Family
}

// AddrFrom128 constructs an IPv6 address from its two left-aligned 64-bit
// halves.
func AddrFrom128(hi, lo uint64) Addr {
	return Addr{hi: hi, lo: lo, fam: IPv6}
}

// AddrFrom32 constructs an IPv4 address from its 32-bit value
// (e.g. 0x0A000001 is 10.0.0.1).
func AddrFrom32(v uint32) Addr {
	return Addr{hi: uint64(v) << 32, fam: IPv4}
}

// AddrFrom4 constructs an IPv4 address from four octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return AddrFrom32(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Family returns the address family.
func (a Addr) Family() Family { return a.fam }

// Uint32 returns the 32-bit value of an IPv4 address. It panics for IPv6.
func (a Addr) Uint32() uint32 {
	if a.fam != IPv4 {
		//cluevet:ignore - invariant guard: every caller checks the family at parse/build time
		panic("ip: Uint32 on IPv6 address")
	}
	return uint32(a.hi >> 32)
}

// Halves returns the two left-aligned 64-bit halves of the address.
func (a Addr) Halves() (hi, lo uint64) { return a.hi, a.lo }

// Hash mixes the address into 64 well-spread bits (a murmur3 finalizer
// over a golden-ratio fold of the halves). Hash() % n shards flows
// across n goroutines so every packet to one destination lands on the
// same one.
func (a Addr) Hash() uint64 {
	x := a.hi ^ (a.lo * 0x9E3779B97F4A7C15)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return x
}

// Bit returns bit i of the address, where bit 0 is the most significant bit
// of the first octet. The result is 0 or 1.
func (a Addr) Bit(i int) byte {
	if i < 64 {
		return byte(a.hi >> (63 - i) & 1)
	}
	return byte(a.lo >> (127 - i) & 1)
}

// WithBit returns a copy of a with bit i set to b (0 or 1).
func (a Addr) WithBit(i int, b byte) Addr {
	if i < 64 {
		mask := uint64(1) << (63 - i)
		if b == 0 {
			a.hi &^= mask
		} else {
			a.hi |= mask
		}
		return a
	}
	mask := uint64(1) << (127 - i)
	if b == 0 {
		a.lo &^= mask
	} else {
		a.lo |= mask
	}
	return a
}

// Mask returns the address with all but the first n bits cleared.
func (a Addr) Mask(n int) Addr {
	switch {
	case n <= 0:
		a.hi, a.lo = 0, 0
	case n < 64:
		a.hi &= ^uint64(0) << (64 - n)
		a.lo = 0
	case n == 64:
		a.lo = 0
	case n < 128:
		a.lo &= ^uint64(0) << (128 - n)
	}
	return a
}

// FillRight returns the address with every bit from position n (inclusive)
// to the end of the family width set to 1. It is used to compute the last
// address covered by a prefix when expanding prefixes into endpoint pairs
// for the binary-search lookup engine.
func (a Addr) FillRight(n int) Addr {
	w := a.fam.Width()
	if n >= w {
		return a
	}
	if n < 64 {
		a.hi |= ^uint64(0) >> n
	}
	if w > 64 {
		m := n
		if m < 64 {
			m = 64
		}
		a.lo |= ^uint64(0) >> (m - 64)
	} else {
		// IPv4: only bits 0..31 of hi participate.
		a.hi &= 0xFFFFFFFF_00000000
	}
	return a
}

// Zero returns the all-zeros address of the given family.
func Zero(f Family) Addr { return Addr{fam: f} }

// Next returns the successor address within the family (a+1) and reports
// whether it exists (false when a is the all-ones address). It is used to
// expand prefixes into half-open interval boundaries for the binary-search
// lookup engine.
func (a Addr) Next() (Addr, bool) {
	if a.fam == IPv4 {
		v := a.Uint32()
		if v == ^uint32(0) {
			return Addr{}, false
		}
		return AddrFrom32(v + 1), true
	}
	lo := a.lo + 1
	hi := a.hi
	if lo == 0 {
		hi++
		if hi == 0 {
			return Addr{}, false
		}
	}
	return AddrFrom128(hi, lo), true
}

// Compare orders addresses lexicographically by bit string (equivalently,
// numerically on the left-aligned 128-bit value). It returns -1, 0 or +1.
// Addresses of different families do not interleave meaningfully; callers
// sort within one family.
func (a Addr) Compare(b Addr) int {
	switch {
	case a.hi < b.hi:
		return -1
	case a.hi > b.hi:
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	}
	return 0
}

// CommonPrefixLen returns the length of the longest common prefix of a and
// b, capped at the family width.
func (a Addr) CommonPrefixLen(b Addr) int {
	n := 0
	if x := a.hi ^ b.hi; x != 0 {
		n = bits.LeadingZeros64(x)
	} else if y := a.lo ^ b.lo; y != 0 {
		n = 64 + bits.LeadingZeros64(y)
	} else {
		n = 128
	}
	if w := a.fam.Width(); n > w {
		n = w
	}
	return n
}

// String formats the address in the conventional notation for its family.
func (a Addr) String() string {
	if a.fam == IPv4 {
		v := a.Uint32()
		return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	// RFC 5952-style formatting: longest run of zero 16-bit groups becomes "::".
	var groups [8]uint16
	for i := 0; i < 4; i++ {
		groups[i] = uint16(a.hi >> (48 - 16*i))
		groups[4+i] = uint16(a.lo >> (48 - 16*i))
	}
	bestStart, bestLen := -1, 0
	for i := 0; i < 8; {
		if groups[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && groups[j] == 0 {
			j++
		}
		if j-i > bestLen {
			bestStart, bestLen = i, j-i
		}
		i = j
	}
	var sb strings.Builder
	if bestLen < 2 {
		bestStart = -1 // a single zero group is not compressed
	}
	for i := 0; i < 8; i++ {
		if i == bestStart {
			sb.WriteString("::")
			i += bestLen - 1
			continue
		}
		if i > 0 && !(bestStart >= 0 && i == bestStart+bestLen) {
			sb.WriteByte(':')
		}
		sb.WriteString(strconv.FormatUint(uint64(groups[i]), 16))
	}
	if sb.Len() == 0 {
		return "::"
	}
	return sb.String()
}

// ParseAddr parses an IPv4 dotted-quad or an IPv6 colon-hex address
// (with optional "::" compression).
func ParseAddr(s string) (Addr, error) {
	if strings.Contains(s, ":") {
		return parseV6(s)
	}
	return parseV4(s)
}

// MustParseAddr is ParseAddr that panics on error; intended for tests,
// examples and table literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func parseV4(s string) (Addr, error) {
	var v uint32
	part := 0
	for part = 0; part < 4; part++ {
		i := strings.IndexByte(s, '.')
		field := s
		switch {
		case part == 3:
			if i >= 0 {
				return Addr{}, fmt.Errorf("ip: invalid IPv4 address: too many octets")
			}
			s = ""
		case i < 0:
			return Addr{}, fmt.Errorf("ip: invalid IPv4 address: too few octets")
		default:
			field = s[:i]
			s = s[i+1:]
		}
		n, err := strconv.ParseUint(field, 10, 16)
		if err != nil || n > 255 {
			return Addr{}, fmt.Errorf("ip: invalid IPv4 octet %q", field)
		}
		v = v<<8 | uint32(n)
	}
	if s != "" {
		return Addr{}, fmt.Errorf("ip: invalid IPv4 address: trailing %q", s)
	}
	return AddrFrom32(v), nil
}

func parseV6(s string) (Addr, error) {
	var head, tail []uint16
	cur := &head
	rest := s
	if strings.HasPrefix(rest, "::") {
		cur = &tail
		rest = rest[2:]
	}
	for rest != "" {
		i := strings.IndexByte(rest, ':')
		var field string
		if i == 0 {
			// "::" in the middle.
			if cur == &tail {
				return Addr{}, fmt.Errorf("ip: invalid IPv6 address %q: repeated ::", s)
			}
			cur = &tail
			rest = rest[1:]
			continue
		}
		if i > 0 {
			field = rest[:i]
			rest = rest[i+1:]
			if rest == "" {
				return Addr{}, fmt.Errorf("ip: invalid IPv6 address %q: trailing colon", s)
			}
		} else {
			field = rest
			rest = ""
		}
		n, err := strconv.ParseUint(field, 16, 16)
		if err != nil {
			return Addr{}, fmt.Errorf("ip: invalid IPv6 group %q", field)
		}
		*cur = append(*cur, uint16(n))
	}
	total := len(head) + len(tail)
	if total > 8 || (cur == &head && total != 8) {
		return Addr{}, fmt.Errorf("ip: invalid IPv6 address %q: wrong group count", s)
	}
	var groups [8]uint16
	copy(groups[:], head)
	copy(groups[8-len(tail):], tail)
	var hi, lo uint64
	for i := 0; i < 4; i++ {
		hi = hi<<16 | uint64(groups[i])
		lo = lo<<16 | uint64(groups[4+i])
	}
	return AddrFrom128(hi, lo), nil
}
