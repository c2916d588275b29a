package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if Add(0x57, 0x83) != 0x57^0x83 {
		t.Fatal("Add must be xor")
	}
}

func TestMulKnownValues(t *testing.T) {
	// Known products under polynomial 0x11d.
	tests := []struct{ a, b, want byte }{
		{0, 0, 0},
		{0, 5, 0},
		{1, 1, 1},
		{1, 0xff, 0xff},
		{2, 2, 4},
		{0x80, 2, 0x1d}, // overflow wraps through the polynomial
	}
	for _, tt := range tests {
		if got := Mul(tt.a, tt.b); got != tt.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}

	commutative := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(commutative, cfg); err != nil {
		t.Errorf("multiplication not commutative: %v", err)
	}

	associative := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Errorf("multiplication not associative: %v", err)
	}

	distributive := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Errorf("multiplication not distributive over addition: %v", err)
	}

	identity := func(a byte) bool { return Mul(a, 1) == a }
	if err := quick.Check(identity, cfg); err != nil {
		t.Errorf("1 is not a multiplicative identity: %v", err)
	}
}

func TestInverseProperty(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%#x) = %#x is not an inverse", a, inv)
		}
		if Div(1, byte(a)) != inv {
			t.Fatalf("Div(1, %#x) != Inv(%#x)", a, a)
		}
	}
}

func TestDivMulRoundTrip(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(x, 0) did not panic")
		}
	}()
	Div(3, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpCycle(t *testing.T) {
	if _tab.exp[0] != 1 {
		t.Fatalf("g^0 = %d, want 1", _tab.exp[0])
	}
	if _tab.exp[255] != 1 {
		t.Fatalf("g^255 = %d, want 1 (multiplicative order)", _tab.exp[255])
	}
	if _tab.exp[1] != 2 {
		t.Fatalf("g^1 = %d, want generator 2", _tab.exp[1])
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 257)
	rng.Read(src)
	for _, c := range []byte{0, 1, 2, 0x1d, 0xff} {
		dst := make([]byte, len(src))
		MulSlice(c, src, dst)
		for i := range src {
			if want := Mul(c, src[i]); dst[i] != want {
				t.Fatalf("MulSlice c=%#x idx=%d got %#x want %#x", c, i, dst[i], want)
			}
		}
	}
}

func TestMulAddSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]byte, 129)
	base := make([]byte, 129)
	rng.Read(src)
	rng.Read(base)
	for _, c := range []byte{0, 1, 7, 0xfe} {
		dst := append([]byte(nil), base...)
		MulAddSlice(c, src, dst)
		for i := range src {
			if want := base[i] ^ Mul(c, src[i]); dst[i] != want {
				t.Fatalf("MulAddSlice c=%#x idx=%d got %#x want %#x", c, i, dst[i], want)
			}
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulSlice with mismatched lengths did not panic")
		}
	}()
	MulSlice(3, make([]byte, 4), make([]byte, 5))
}

func TestMatrixIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, byte(rng.Intn(256)))
		}
	}
	got := Identity(4).Mul(m)
	if !bytes.Equal(got.data, m.data) {
		t.Fatal("I × M != M")
	}
	got = m.Mul(Identity(4))
	if !bytes.Equal(got.data, m.data) {
		t.Fatal("M × I != M")
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		m := NewMatrix(n, n)
		for {
			for i := range m.data {
				m.data[i] = byte(rng.Intn(256))
			}
			if _, err := m.Invert(); err == nil {
				break
			}
		}
		inv, err := m.Invert()
		if err != nil {
			t.Fatalf("Invert failed on invertible matrix: %v", err)
		}
		prod := m.Mul(inv)
		if !bytes.Equal(prod.data, Identity(n).data) {
			t.Fatalf("trial %d: M × M^-1 != I for n=%d", trial, n)
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2)
	if _, err := m.Invert(); err == nil {
		t.Fatal("inverting a singular matrix succeeded")
	}
}

func TestMatrixInvertNonSquare(t *testing.T) {
	if _, err := NewMatrix(2, 3).Invert(); err == nil {
		t.Fatal("inverting a non-square matrix succeeded")
	}
}

func TestCauchyEverySquareSubmatrixInvertible(t *testing.T) {
	const n, k = 10, 3
	m := Cauchy(n, k)
	// Exhaustively check all C(10,3) = 120 row subsets.
	rows := make([]int, k)
	var recurse func(start, depth int)
	checked := 0
	recurse = func(start, depth int) {
		if depth == k {
			sub := m.SubMatrix(rows)
			if _, err := sub.Invert(); err != nil {
				t.Fatalf("Cauchy submatrix rows %v singular: %v", rows, err)
			}
			checked++
			return
		}
		for r := start; r < n; r++ {
			rows[depth] = r
			recurse(r+1, depth+1)
		}
	}
	recurse(0, 0)
	if checked != 120 {
		t.Fatalf("checked %d subsets, want 120", checked)
	}
}

func TestCauchyDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cauchy(200, 100) did not panic (n+k > 256)")
		}
	}()
	Cauchy(200, 100)
}

func TestSubMatrixOrderPreserved(t *testing.T) {
	m := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		m.Set(i, 0, byte(i+1))
	}
	sub := m.SubMatrix([]int{2, 0})
	if sub.At(0, 0) != 3 || sub.At(1, 0) != 1 {
		t.Fatal("SubMatrix did not preserve requested row order")
	}
}

func BenchmarkMulAddSlice4KB(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x57, src, dst)
	}
}
