package gf256

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dimensions = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if m.At(r, c) != 0 {
				t.Fatalf("new matrix not zeroed at (%d,%d)", r, c)
			}
		}
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([][]byte{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected contents: %v", m)
	}
	if _, err := NewMatrixFromRows([][]byte{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
	empty, err := NewMatrixFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Fatalf("empty construction: %v %v", empty, err)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(5)
	if !id.IsIdentity() {
		t.Fatal("Identity(5) is not the identity")
	}
	m := NewMatrix(2, 3)
	if m.IsIdentity() {
		t.Fatal("non-square matrix reported as identity")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(1, 0, 42)
	if m.At(1, 0) != 42 {
		t.Fatalf("At(1,0) = %d, want 42", m.At(1, 0))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range access")
		}
	}()
	m.At(2, 0)
}

func TestMulByIdentity(t *testing.T) {
	m := Vandermonde(4, 4)
	got, err := m.Mul(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("M*I != M")
	}
	got2, err := Identity(4).Mul(m)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(m) {
		t.Fatal("I*M != M")
	}
}

func TestMulShapeMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestVandermondeFirstRowsAndCols(t *testing.T) {
	v := Vandermonde(6, 4)
	// Row 0 is [1 0 0 0] because 0^0=1, 0^j=0 for j>0.
	if v.At(0, 0) != 1 || v.At(0, 1) != 0 || v.At(0, 3) != 0 {
		t.Fatalf("row 0 incorrect: %v", v.Row(0))
	}
	// Row 1 is all ones (1^j = 1).
	for c := 0; c < 4; c++ {
		if v.At(1, c) != 1 {
			t.Fatalf("row 1 incorrect: %v", v.Row(1))
		}
	}
	// Column 0 is all ones (r^0 = 1).
	for r := 0; r < 6; r++ {
		if v.At(r, 0) != 1 {
			t.Fatalf("col 0 incorrect at row %d", r)
		}
	}
}

func TestVandermondeAnyKRowsInvertible(t *testing.T) {
	// The FEC correctness hinges on this: any k rows of the (n,k) Vandermonde
	// matrix form an invertible k×k matrix.
	const n, k = 10, 4
	v := Vandermonde(n, k)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		rows := rng.Perm(n)[:k]
		sub := v.SelectRows(rows)
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("rows %v produced singular submatrix", rows)
		}
	}
}

func TestInvertIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, byte(rng.Intn(256)))
			}
		}
		inv, err := m.Invert()
		if err != nil {
			// Singular random matrices are legitimate; skip them.
			return true
		}
		prod, err := m.Mul(inv)
		if err != nil {
			return false
		}
		return prod.IsIdentity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInvertSingular(t *testing.T) {
	m, _ := NewMatrixFromRows([][]byte{{1, 1}, {1, 1}})
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	zero := NewMatrix(3, 3)
	if _, err := zero.Invert(); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	m := NewMatrix(2, 3)
	if _, err := m.Invert(); err == nil {
		t.Fatal("expected error inverting non-square matrix")
	}
}

func TestSubMatrixAndSelectRows(t *testing.T) {
	m := Vandermonde(5, 3)
	sub := m.SubMatrix(1, 4, 0, 2)
	if sub.Rows() != 3 || sub.Cols() != 2 {
		t.Fatalf("submatrix dims %dx%d, want 3x2", sub.Rows(), sub.Cols())
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 2; c++ {
			if sub.At(r, c) != m.At(r+1, c) {
				t.Fatalf("submatrix content mismatch at (%d,%d)", r, c)
			}
		}
	}
	sel := m.SelectRows([]int{4, 0})
	if sel.Rows() != 2 {
		t.Fatalf("SelectRows rows = %d, want 2", sel.Rows())
	}
	for c := 0; c < 3; c++ {
		if sel.At(0, c) != m.At(4, c) || sel.At(1, c) != m.At(0, c) {
			t.Fatal("SelectRows content mismatch")
		}
	}
}

func TestSwapRows(t *testing.T) {
	m, _ := NewMatrixFromRows([][]byte{{1, 2}, {3, 4}})
	m.SwapRows(0, 1)
	if m.At(0, 0) != 3 || m.At(1, 0) != 1 {
		t.Fatalf("SwapRows failed: %v", m)
	}
	m.SwapRows(1, 1) // no-op must not corrupt
	if m.At(1, 0) != 1 {
		t.Fatal("self-swap corrupted the matrix")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Vandermonde(3, 3)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
	if !m.Clone().Equal(m) {
		t.Fatal("Clone not equal to original")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewMatrix(1, 2).Equal(NewMatrix(2, 1)) {
		t.Fatal("matrices of different shapes reported equal")
	}
}

func TestStringNonEmpty(t *testing.T) {
	if Vandermonde(2, 2).String() == "" {
		t.Fatal("String() returned empty output")
	}
}

func BenchmarkInvert8x8(b *testing.B) {
	m := Vandermonde(16, 8).SelectRows([]int{0, 2, 4, 6, 8, 10, 12, 14})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}
