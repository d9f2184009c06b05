package ip

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseFormatV4(t *testing.T) {
	cases := []string{"0.0.0.0", "10.0.0.1", "192.168.255.254", "255.255.255.255", "1.2.3.4"}
	for _, s := range cases {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.Family() != IPv4 {
			t.Errorf("ParseAddr(%q).Family() = %v, want IPv4", s, a.Family())
		}
		if got := a.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseV4Errors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "1.2.3.4."} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q): want error, got nil", s)
		}
	}
}

func TestParseFormatV6(t *testing.T) {
	cases := map[string]string{
		"::":                      "::",
		"::1":                     "::1",
		"2001:db8::1":             "2001:db8::1",
		"2001:0db8:0:0:0:0:0:1":   "2001:db8::1",
		"fe80::1:2:3:4":           "fe80::1:2:3:4",
		"1:2:3:4:5:6:7:8":         "1:2:3:4:5:6:7:8",
		"2001:db8:0:1:1:1:1:1":    "2001:db8:0:1:1:1:1:1", // single zero group not compressed
		"ff02::":                  "ff02::",
		"0:0:0:0:0:0:0:8":         "::8",
		"2001:db8:aaaa:bbbb::123": "2001:db8:aaaa:bbbb::123",
	}
	for in, want := range cases {
		a, err := ParseAddr(in)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", in, err)
		}
		if a.Family() != IPv6 {
			t.Errorf("ParseAddr(%q).Family() = %v, want IPv6", in, a.Family())
		}
		if got := a.String(); got != want {
			t.Errorf("ParseAddr(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParseV6Errors(t *testing.T) {
	for _, s := range []string{":::", "1:2:3:4:5:6:7:8:9", "1:2:3", "2001:db8::1::2", "g::1", "1:2:3:4:5:6:7:"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q): want error, got nil", s)
		}
	}
}

func TestBitAndWithBit(t *testing.T) {
	a := MustParseAddr("128.0.0.1")
	if a.Bit(0) != 1 {
		t.Errorf("Bit(0) = %d, want 1", a.Bit(0))
	}
	if a.Bit(1) != 0 {
		t.Errorf("Bit(1) = %d, want 0", a.Bit(1))
	}
	if a.Bit(31) != 1 {
		t.Errorf("Bit(31) = %d, want 1", a.Bit(31))
	}
	b := a.WithBit(31, 0).WithBit(1, 1)
	if got := b.String(); got != "192.0.0.0" {
		t.Errorf("WithBit result = %q, want 192.0.0.0", got)
	}
	v6 := MustParseAddr("::1")
	if v6.Bit(127) != 1 || v6.Bit(126) != 0 {
		t.Errorf("v6 low bits wrong: %d %d", v6.Bit(127), v6.Bit(126))
	}
	if got := v6.WithBit(127, 0).WithBit(0, 1).String(); got != "8000::" {
		t.Errorf("v6 WithBit = %q, want 8000::", got)
	}
}

func TestMask(t *testing.T) {
	a := MustParseAddr("255.255.255.255")
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, "0.0.0.0"}, {1, "128.0.0.0"}, {8, "255.0.0.0"}, {24, "255.255.255.0"}, {32, "255.255.255.255"},
	} {
		if got := a.Mask(tc.n).String(); got != tc.want {
			t.Errorf("Mask(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
	v6 := MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")
	if got := v6.Mask(64).String(); got != "ffff:ffff:ffff:ffff::" {
		t.Errorf("v6 Mask(64) = %q", got)
	}
	if got := v6.Mask(65).String(); got != "ffff:ffff:ffff:ffff:8000::" {
		t.Errorf("v6 Mask(65) = %q", got)
	}
}

func TestFillRight(t *testing.T) {
	a := MustParseAddr("10.1.0.0")
	if got := a.FillRight(16).String(); got != "10.1.255.255" {
		t.Errorf("FillRight(16) = %q", got)
	}
	if got := a.FillRight(32).String(); got != "10.1.0.0" {
		t.Errorf("FillRight(32) = %q", got)
	}
	v6 := MustParseAddr("2001:db8::")
	if got := v6.FillRight(32).String(); got != "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff" {
		t.Errorf("v6 FillRight(32) = %q", got)
	}
	if got := v6.FillRight(96).String(); got != "2001:db8::ffff:ffff" {
		t.Errorf("v6 FillRight(96) = %q", got)
	}
}

func TestCompareAndCommonPrefixLen(t *testing.T) {
	a := MustParseAddr("10.0.0.0")
	b := MustParseAddr("10.0.0.1")
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Errorf("Compare ordering wrong")
	}
	if got := a.CommonPrefixLen(b); got != 31 {
		t.Errorf("CommonPrefixLen = %d, want 31", got)
	}
	if got := a.CommonPrefixLen(a); got != 32 {
		t.Errorf("CommonPrefixLen(self) = %d, want 32", got)
	}
	c := MustParseAddr("128.0.0.0")
	if got := a.CommonPrefixLen(c); got != 0 {
		t.Errorf("CommonPrefixLen disjoint = %d, want 0", got)
	}
	x := MustParseAddr("2001:db8::1")
	y := MustParseAddr("2001:db8::2")
	if got := x.CommonPrefixLen(y); got != 126 {
		t.Errorf("v6 CommonPrefixLen = %d, want 126", got)
	}
	if got := x.CommonPrefixLen(x); got != 128 {
		t.Errorf("v6 CommonPrefixLen(self) = %d, want 128", got)
	}
}

func TestZeroAndNext(t *testing.T) {
	if Zero(IPv4).String() != "0.0.0.0" || Zero(IPv6).String() != "::" {
		t.Error("Zero formatting wrong")
	}
	n, ok := MustParseAddr("10.0.0.255").Next()
	if !ok || n.String() != "10.0.1.0" {
		t.Errorf("Next = %v %v", n, ok)
	}
	if _, ok := MustParseAddr("255.255.255.255").Next(); ok {
		t.Error("Next of all-ones v4 should overflow")
	}
	n, ok = MustParseAddr("::ffff:ffff").Next()
	if !ok || n.String() != "::1:0:0" {
		t.Errorf("v6 Next = %v %v", n, ok)
	}
	// Carry out of the low 64-bit half: group 3 (0xffff) wraps and group 2
	// is incremented.
	n, ok = MustParseAddr("0:0:0:ffff:ffff:ffff:ffff:ffff").Next()
	if !ok || n.String() != "0:0:1::" {
		t.Errorf("v6 carry Next = %v %v", n, ok)
	}
	if _, ok := MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff").Next(); ok {
		t.Error("Next of all-ones v6 should overflow")
	}
}

// Property: for random IPv4 addresses, Bit/Mask/CommonPrefixLen are
// mutually consistent — the first CommonPrefixLen bits agree and the next
// bit (if any) differs.
func TestQuickBitConsistency(t *testing.T) {
	f := func(x, y uint32) bool {
		a, b := AddrFrom32(x), AddrFrom32(y)
		n := a.CommonPrefixLen(b)
		for i := 0; i < n; i++ {
			if a.Bit(i) != b.Bit(i) {
				return false
			}
		}
		if n < 32 && a.Bit(n) == b.Bit(n) {
			return false
		}
		return a.Mask(n) == b.Mask(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: WithBit(i, Bit(i)) is the identity, and WithBit round-trips.
func TestQuickWithBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		a := AddrFrom128(rng.Uint64(), rng.Uint64())
		i := rng.Intn(128)
		if a.WithBit(i, a.Bit(i)) != a {
			t.Fatalf("WithBit identity failed at bit %d of %v", i, a)
		}
		flipped := a.WithBit(i, 1-a.Bit(i))
		if flipped == a || flipped.WithBit(i, a.Bit(i)) != a {
			t.Fatalf("WithBit flip round trip failed at bit %d of %v", i, a)
		}
	}
}

// TestHashSpreadsShards checks that Hash spreads a /20's worth of
// consecutive IPv4 hosts, and of IPv6 hosts differing only in the low
// half, over four shards instead of pinning them to one.
func TestHashSpreadsShards(t *testing.T) {
	const shards = 4
	for _, fam := range []string{"IPv4", "IPv6"} {
		var hist [shards]int
		for i := 0; i < 4096; i++ {
			a := AddrFrom32(0xc0a80000 | uint32(i))
			if fam == "IPv6" {
				a = AddrFrom128(0x20010db800000000, uint64(i))
			}
			hist[a.Hash()%shards]++
		}
		for s, n := range hist {
			// Fair share is 1024; accept anything within 2x either way.
			if n < 512 || n > 2048 {
				t.Fatalf("%s: shard %d got %d of 4096 hosts; histogram %v", fam, s, n, hist)
			}
		}
	}
}
