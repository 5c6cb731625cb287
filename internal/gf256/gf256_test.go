package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXOR(t *testing.T) {
	cases := []struct {
		a, b, want byte
	}{
		{0, 0, 0},
		{1, 1, 0},
		{0xff, 0x0f, 0xf0},
		{0x53, 0xca, 0x99},
	}
	for _, c := range cases {
		if got := Add(c.a, c.b); got != c.want {
			t.Errorf("Add(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulKnownValues(t *testing.T) {
	// Values verified against Rizzo's fec library tables.
	cases := []struct {
		a, b, want byte
	}{
		{0, 5, 0},
		{5, 0, 0},
		{1, 7, 7},
		{2, 2, 4},
		{0x80, 2, 0x1d}, // overflow triggers reduction by 0x11d
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

// refMul is a bit-by-bit carryless multiply with reduction by 0x11d, used as
// an independent oracle for the table-driven implementation.
func refMul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		carry := a&0x80 != 0
		a <<= 1
		if carry {
			a ^= primitivePoly
		}
		b >>= 1
	}
	return p
}

func TestMulMatchesReferenceExhaustive(t *testing.T) {
	for a := 0; a < Order; a++ {
		for b := 0; b < Order; b++ {
			if got, want := Mul(byte(a), byte(b)), refMul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulCommutativeExhaustive(t *testing.T) {
	for a := 0; a < Order; a++ {
		for b := a; b < Order; b++ {
			if Mul(byte(a), byte(b)) != Mul(byte(b), byte(a)) {
				t.Fatalf("Mul not commutative for %d,%d", a, b)
			}
		}
	}
}

func TestMulAssociativeProperty(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDistributiveProperty(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestInverseExhaustive(t *testing.T) {
	for a := 1; a < Order; a++ {
		inv := Inv(byte(a))
		if got := Mul(byte(a), inv); got != 1 {
			t.Fatalf("Mul(%d, Inv(%d)) = %d, want 1", a, a, got)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Inv(0)")
		}
	}()
	Inv(0)
}

func TestPow(t *testing.T) {
	cases := []struct {
		a    byte
		e    int
		want byte
	}{
		{0, 0, 1},
		{0, 5, 0},
		{7, 0, 1},
		{2, 1, 2},
		{2, 2, 4},
		{2, 8, 0x1d},
	}
	for _, c := range cases {
		if got := Pow(c.a, c.e); got != c.want {
			t.Errorf("Pow(%d,%d) = %#x, want %#x", c.a, c.e, got, c.want)
		}
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	for a := 0; a < Order; a += 7 {
		acc := byte(1)
		for e := 0; e < 300; e++ {
			if got := Pow(byte(a), e); got != acc {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, acc)
			}
			acc = Mul(acc, byte(a))
		}
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{1, 2, 3, 0, 0xff}
	dst := make([]byte, len(src))
	MulSlice(3, src, dst)
	for i := range src {
		if dst[i] != Mul(3, src[i]) {
			t.Fatalf("MulSlice mismatch at %d", i)
		}
	}
	// c == 0 zeroes the destination.
	MulSlice(0, src, dst)
	for i := range dst {
		if dst[i] != 0 {
			t.Fatalf("MulSlice(0) should zero dst, got %v", dst)
		}
	}
	// c == 1 copies.
	MulSlice(1, src, dst)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("MulSlice(1) should copy src")
		}
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MulSlice":    func() { MulSlice(2, []byte{1}, []byte{1, 2}) },
		"AddMulSlice": func() { AddMulSlice(2, []byte{1}, []byte{1, 2}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on length mismatch")
				}
			}()
			fn()
		})
	}
}
