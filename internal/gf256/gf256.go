// Package gf256 implements arithmetic over the Galois field GF(2^8)
// with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the
// field conventionally used by Reed–Solomon storage codes.
//
// The package provides scalar operations backed by log/exp tables,
// vector operations used by the erasure coder's hot path, and a small
// dense-matrix type with Gaussian-elimination inversion used to build
// and invert encode matrices.
package gf256

import "fmt"

// polynomial is the primitive polynomial used to generate the field.
const polynomial = 0x11d

// tables holds the exp/log lookup tables. They are built once by
// newTables and shared read-only afterwards.
type tables struct {
	exp [512]byte // exp[i] = g^i, doubled to avoid a mod in Mul
	log [256]byte // log[x] = i such that g^i = x, log[0] unused
	// mul is the full product table: mul[a][b] = a*b. 64 KiB buys a
	// single lookup per byte in the scalar slice loops.
	mul [256][256]byte
	// mulLo/mulHi are the split nibble product tables used by the wide
	// kernels (kernels.go): mulLo[c][x] = c·x and mulHi[c][x] = c·(x<<4),
	// so c·b = mulLo[c][b&15] ^ mulHi[c][b>>4]. Each coefficient's pair
	// is 32 B — resident in L1 for the whole run of a kernel, unlike a
	// 256 B row of the full table competing with src/dst streams.
	mulLo [256][16]byte
	mulHi [256][16]byte
}

// _tab is read-only after construction; safe for concurrent use.
var _tab = newTables()

func newTables() *tables {
	var t tables
	x := 1
	for i := 0; i < 255; i++ {
		t.exp[i] = byte(x)
		t.log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for i := 255; i < 512; i++ {
		t.exp[i] = t.exp[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			t.mul[a][b] = t.exp[int(t.log[a])+int(t.log[b])]
		}
	}
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			t.mulLo[c][x] = t.mul[c][x]
			t.mulHi[c][x] = t.mul[c][x<<4]
		}
	}
	return &t
}

// Add returns a + b in GF(2^8). Addition and subtraction coincide.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return _tab.exp[int(_tab.log[a])+int(_tab.log[b])]
}

// Div returns a / b in GF(2^8). It panics if b == 0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(_tab.log[a]) - int(_tab.log[b])
	if d < 0 {
		d += 255
	}
	return _tab.exp[d]
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return _tab.exp[255-int(_tab.log[a])]
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have
// equal length; dst may alias src. It uses the wide split-table kernel
// (kernels.go); MulSliceScalar is the byte-at-a-time reference.
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	mulSliceWide(c, src, dst)
}

// MulSliceScalar is the scalar reference for MulSlice: one full-table
// lookup per byte. Kept for equivalence tests and as the baseline in
// kernel benchmarks.
func MulSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	row := &_tab.mul[c]
	for i, s := range src {
		dst[i] = row[s]
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i — the fused
// multiply-accumulate at the heart of Reed–Solomon encoding. It uses
// the wide split-table kernel (kernels.go); MulAddSliceScalar is the
// byte-at-a-time reference.
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		xorSlice(src, dst)
		return
	}
	mulAddSliceWide(c, src, dst)
}

// MulAddSliceScalar is the scalar reference for MulAddSlice: one
// full-table lookup per byte. Kept for equivalence tests and as the
// baseline in kernel benchmarks.
func MulAddSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	row := &_tab.mul[c]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte
}

// NewMatrix returns a zero rows×cols matrix. It panics when either
// dimension is non-positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("gf256: non-positive matrix dimensions")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns a read-only view of row r. Callers must not modify it.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// SubMatrix returns a new matrix containing the given rows of m, in
// the order provided.
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// Mul returns the matrix product m × other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("gf256: matrix dimension mismatch %dx%d × %dx%d",
			m.rows, m.cols, other.rows, other.cols))
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			MulAddSlice(a, other.Row(k), out.Row(i))
		}
	}
	return out
}

// Invert returns the inverse of the square matrix m, or an error if m
// is singular. m is left unmodified.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("gf256: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("gf256: singular matrix (no pivot in column %d)", col)
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize pivot row.
		if p := work.At(col, col); p != 1 {
			ip := Inv(p)
			MulSlice(ip, work.Row(col), work.Row(col))
			MulSlice(ip, inv.Row(col), inv.Row(col))
		}
		// Eliminate the column in every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			MulAddSlice(f, work.Row(col), work.Row(r))
			MulAddSlice(f, inv.Row(col), inv.Row(r))
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// Cauchy builds an n×k Cauchy matrix with entries 1/(x_i + y_j) where
// the x_i and y_j are 2k+... distinct field elements. Every square
// submatrix of a Cauchy matrix is invertible, which makes it the ideal
// encode matrix for a non-systematic MDS code: any k of the n coded
// rows suffice to reconstruct the source.
//
// Cauchy panics unless 0 < k, 0 < n, and n+k <= 256 (the number of
// distinct field elements available).
func Cauchy(n, k int) *Matrix {
	if n <= 0 || k <= 0 || n+k > 256 {
		panic(fmt.Sprintf("gf256: invalid Cauchy dimensions n=%d k=%d", n, k))
	}
	m := NewMatrix(n, k)
	for i := 0; i < n; i++ {
		xi := byte(i)
		for j := 0; j < k; j++ {
			yj := byte(n + j)
			m.Set(i, j, Inv(Add(xi, yj)))
		}
	}
	return m
}
