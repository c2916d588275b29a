package metacrypt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTripDES(t *testing.T) {
	c, err := New(DES, "secret")
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range [][]byte{nil, []byte("x"), []byte("exactly8"), bytes.Repeat([]byte("meta"), 1000)} {
		blob, err := c.Seal(pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Open(blob)
		if err != nil {
			t.Fatalf("Open: %v (len %d)", err, len(pt))
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("round trip mismatch for len %d", len(pt))
		}
	}
}

func TestRoundTripAES(t *testing.T) {
	c, err := New(AES, "secret")
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the sync folder image")
	blob, err := c.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("AES round trip mismatch")
	}
}

func TestCiphertextHidesPlaintext(t *testing.T) {
	for _, alg := range []Algorithm{DES, AES} {
		c, err := New(alg, "secret")
		if err != nil {
			t.Fatal(err)
		}
		pt := bytes.Repeat([]byte("AAAA"), 100)
		blob, err := c.Seal(pt)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(blob, pt[:16]) {
			t.Fatalf("%v: ciphertext contains plaintext run", alg)
		}
	}
}

func TestFreshIVPerSeal(t *testing.T) {
	c, err := New(DES, "secret")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Seal([]byte("same input"))
	b, _ := c.Seal([]byte("same input"))
	if bytes.Equal(a, b) {
		t.Fatal("two Seals of equal plaintext produced identical blobs (IV reuse)")
	}
}

func TestWrongPassphraseFailsOrGarbles(t *testing.T) {
	c1, _ := New(DES, "right")
	c2, _ := New(DES, "wrong")
	pt := []byte("metadata body that is long enough to matter")
	blob, err := c1.Seal(pt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Open(blob)
	if err == nil && bytes.Equal(got, pt) {
		t.Fatal("wrong passphrase decrypted successfully")
	}
}

func TestAlgorithmMismatchRejected(t *testing.T) {
	d, _ := New(DES, "k")
	a, _ := New(AES, "k")
	blob, err := d.Seal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Open(blob); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed on algorithm mismatch", err)
	}
}

func TestMalformedBlobs(t *testing.T) {
	c, _ := New(DES, "k")
	cases := [][]byte{
		nil,
		{},
		{byte(DES)},
		{byte(DES), 1, 2, 3},
		{99, 1, 2, 3, 4, 5, 6, 7, 8},
		append([]byte{byte(DES)}, make([]byte, 8)...), // IV only, no ciphertext
	}
	for i, blob := range cases {
		if _, err := c.Open(blob); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: err = %v, want ErrMalformed", i, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DES, ""); err == nil {
		t.Fatal("empty passphrase accepted")
	}
	if _, err := New(Algorithm(7), "k"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if DES.String() != "des-cbc" || AES.String() != "aes-256-ctr" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(9).String() == "" {
		t.Fatal("unknown algorithm should still print")
	}
}

func TestAlgorithmAccessor(t *testing.T) {
	c, _ := New(AES, "k")
	if c.alg != AES {
		t.Fatal("Algorithm() mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	des, _ := New(DES, "prop")
	aes, _ := New(AES, "prop")
	f := func(pt []byte) bool {
		for _, c := range []*Cipher{des, aes} {
			blob, err := c.Seal(pt)
			if err != nil {
				return false
			}
			got, err := c.Open(blob)
			if err != nil || !bytes.Equal(got, pt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPKCS7Padding(t *testing.T) {
	for n := 0; n <= 24; n++ {
		padded := padPKCS7(make([]byte, n), 8)
		if len(padded)%8 != 0 || len(padded) <= n {
			t.Fatalf("pad(%d) gave length %d", n, len(padded))
		}
		unpadded, err := unpadPKCS7(padded, 8)
		if err != nil {
			t.Fatalf("unpad(%d): %v", n, err)
		}
		if len(unpadded) != n {
			t.Fatalf("unpad(%d) gave length %d", n, len(unpadded))
		}
	}
	if _, err := unpadPKCS7([]byte{1, 2, 3}, 8); err == nil {
		t.Fatal("unpad of non-multiple length accepted")
	}
	if _, err := unpadPKCS7([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 8); err == nil {
		t.Fatal("zero padding byte accepted")
	}
}
