package gf256

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ErrSingular is returned when attempting to invert a matrix that has no
// inverse over GF(2^8).
var ErrSingular = errors.New("gf256: matrix is singular")

// Matrix is a dense rows×cols matrix over GF(2^8). The zero value is an empty
// matrix; use NewMatrix or one of the constructors to create a usable one.
type Matrix struct {
	rows, cols int
	data       []byte // row-major
}

// NewMatrix returns a zero-filled rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gf256: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// NewMatrixFromRows builds a matrix from explicit row data. All rows must have
// equal length. The data is copied.
func NewMatrixFromRows(rows [][]byte) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("gf256: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows×cols Vandermonde matrix with entry (i,j) equal
// to i^j (with 0^0 defined as 1). Any cols rows of this matrix are linearly
// independent, which is the property the erasure coder relies on.
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, Pow(byte(r), c))
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) byte {
	m.check(r, c)
	return m.data[r*m.cols+c]
}

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v byte) {
	m.check(r, c)
	m.data[r*m.cols+c] = v
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("gf256: index (%d,%d) out of range for %dx%d matrix", r, c, m.rows, m.cols))
	}
}

// Row returns a mutable slice aliasing row r.
func (m *Matrix) Row(r int) []byte {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("gf256: row %d out of range", r))
	}
	return m.data[r*m.cols : (r+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have the same shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Mul returns the matrix product m×o.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("gf256: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := NewMatrix(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			AddMulSlice(a, o.Row(k), out.Row(r))
		}
	}
	return out, nil
}

// SubMatrix returns a copy of the rectangular region [r0,r1)×[c0,c1).
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || c0 < 0 || r1 > m.rows || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("gf256: invalid submatrix bounds [%d:%d, %d:%d] of %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := NewMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.Row(r-r0), m.Row(r)[c0:c1])
	}
	return out
}

// SelectRows returns a new matrix consisting of the given rows, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.cols)
	m.selectRowsInto(rows, out)
	return out
}

// SelectRowsInto copies the given rows, in order, into out, which must be
// len(rows)×Cols(). Pair with GetMatrix for an allocation-free row pick.
func (m *Matrix) SelectRowsInto(rows []int, out *Matrix) error {
	if out.rows != len(rows) || out.cols != m.cols {
		return fmt.Errorf("gf256: SelectRowsInto needs a %dx%d destination, got %dx%d",
			len(rows), m.cols, out.rows, out.cols)
	}
	m.selectRowsInto(rows, out)
	return nil
}

func (m *Matrix) selectRowsInto(rows []int, out *Matrix) {
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
}

// matrixPool recycles matrix scratch across decode-side reconstructions: the
// FEC repair path needs two k×k temporaries (the selected generator rows and
// their inverse) plus a Gauss–Jordan work copy per recovered group, and under
// loss churn those would otherwise be fresh garbage every time.
var matrixPool = sync.Pool{New: func() any { return &Matrix{} }}

// GetMatrix returns a zeroed rows×cols matrix drawn from the scratch pool.
// Return it with PutMatrix when done; the matrix must not be used after that.
func GetMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gf256: invalid matrix dimensions %dx%d", rows, cols))
	}
	m := matrixPool.Get().(*Matrix)
	m.rows, m.cols = rows, cols
	need := rows * cols
	if cap(m.data) < need {
		m.data = make([]byte, need)
	} else {
		m.data = m.data[:need]
		clear(m.data)
	}
	return m
}

// PutMatrix returns a GetMatrix matrix to the scratch pool.
func PutMatrix(m *Matrix) {
	if m != nil {
		matrixPool.Put(m)
	}
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Invert returns the inverse of a square matrix using Gauss–Jordan
// elimination over GF(2^8). ErrSingular is returned when no inverse exists.
func (m *Matrix) Invert() (*Matrix, error) {
	inv := NewMatrix(m.rows, m.cols)
	if err := m.InvertInto(inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// InvertInto computes the inverse into inv, which must be square with m's
// dimensions; the Gauss–Jordan work copy comes from the matrix scratch pool,
// so paired with GetMatrix for inv the whole inversion is allocation-free.
// ErrSingular is returned when no inverse exists.
func (m *Matrix) InvertInto(inv *Matrix) error {
	if m.rows != m.cols {
		return fmt.Errorf("gf256: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	if inv.rows != m.rows || inv.cols != m.cols {
		return fmt.Errorf("gf256: InvertInto needs a %dx%d destination, got %dx%d",
			m.rows, m.cols, inv.rows, inv.cols)
	}
	n := m.rows
	work := GetMatrix(n, n)
	defer PutMatrix(work)
	copy(work.data, m.data)
	clear(inv.data)
	for i := 0; i < n; i++ {
		inv.data[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Find a pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return ErrSingular
		}
		work.SwapRows(col, pivot)
		inv.SwapRows(col, pivot)

		// Scale the pivot row so the pivot becomes 1.
		p := work.At(col, col)
		if p != 1 {
			invP := Inv(p)
			MulSlice(invP, work.Row(col), work.Row(col))
			MulSlice(invP, inv.Row(col), inv.Row(col))
		}

		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := work.At(r, col)
			if factor == 0 {
				continue
			}
			AddMulSlice(factor, work.Row(col), work.Row(r))
			AddMulSlice(factor, inv.Row(col), inv.Row(r))
		}
	}
	return nil
}

// IsIdentity reports whether the matrix is square and equal to the identity.
func (m *Matrix) IsIdentity() bool {
	if m.rows != m.cols {
		return false
	}
	return m.Equal(Identity(m.rows))
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.rows; r++ {
		fmt.Fprintf(&b, "%v\n", m.Row(r))
	}
	return b.String()
}
