// Package metacrypt encrypts UniDrive's serialized metadata before it
// is replicated to the clouds.
//
// The paper specifies that "metadata is DES encrypted and replicated
// to all clouds" (§4). This package implements that faithfully
// (DES-CBC with PKCS#7 padding) and, because single-DES has been
// obsolete for decades, also offers an AES-256-CTR cipher that callers
// should prefer for anything beyond reproducing the paper. Ciphertext
// is self-describing: a one-byte algorithm tag precedes the IV.
//
// Note that, as in the paper, only the metadata is encrypted at this
// layer — content confidentiality comes from the non-systematic
// erasure code bounding how many blocks any provider holds (§6.1).
package metacrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/des"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Algorithm selects the metadata cipher.
type Algorithm byte

// Supported algorithms.
const (
	// DES is the paper's cipher: DES-CBC with PKCS#7 padding.
	DES Algorithm = iota + 1
	// AES is AES-256-CTR, the recommended modern alternative.
	AES
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case DES:
		return "des-cbc"
	case AES:
		return "aes-256-ctr"
	default:
		return fmt.Sprintf("Algorithm(%d)", byte(a))
	}
}

// ErrMalformed reports ciphertext that cannot be parsed or whose
// padding is invalid.
var ErrMalformed = errors.New("metacrypt: malformed ciphertext")

// Cipher encrypts and decrypts metadata blobs with a key derived from
// a user passphrase. A Cipher is immutable and safe for concurrent
// use.
type Cipher struct {
	alg    Algorithm
	desKey []byte // 8 bytes
	aesKey []byte // 32 bytes
}

// New derives a Cipher from the user's passphrase. The key schedule
// is SHA-256 of the passphrase: the first 8 bytes key DES, the full
// 32 bytes key AES.
func New(alg Algorithm, passphrase string) (*Cipher, error) {
	if alg != DES && alg != AES {
		return nil, fmt.Errorf("metacrypt: unknown algorithm %v", alg)
	}
	if passphrase == "" {
		return nil, errors.New("metacrypt: empty passphrase")
	}
	sum := sha256.Sum256([]byte(passphrase))
	return &Cipher{alg: alg, desKey: sum[:8], aesKey: sum[:]}, nil
}

// Seal encrypts plaintext. Output layout: tag byte, IV, ciphertext.
func (c *Cipher) Seal(plaintext []byte) ([]byte, error) {
	switch c.alg {
	case DES:
		return c.sealDES(plaintext)
	case AES:
		return c.sealAES(plaintext)
	default:
		return nil, fmt.Errorf("metacrypt: unknown algorithm %v", c.alg)
	}
}

// Open decrypts a blob produced by Seal with the same passphrase. The
// algorithm is read from the blob's tag and must match the cipher's.
func (c *Cipher) Open(blob []byte) ([]byte, error) {
	if len(blob) < 1 {
		return nil, fmt.Errorf("%w: empty blob", ErrMalformed)
	}
	alg := Algorithm(blob[0])
	if alg != c.alg {
		return nil, fmt.Errorf("%w: blob is %v, cipher is %v", ErrMalformed, alg, c.alg)
	}
	switch alg {
	case DES:
		return c.openDES(blob[1:])
	case AES:
		return c.openAES(blob[1:])
	default:
		return nil, fmt.Errorf("%w: unknown algorithm tag %d", ErrMalformed, blob[0])
	}
}

func (c *Cipher) sealDES(plaintext []byte) ([]byte, error) {
	block, err := des.NewCipher(c.desKey)
	if err != nil {
		return nil, fmt.Errorf("metacrypt: des key: %w", err)
	}
	padded := padPKCS7(plaintext, des.BlockSize)
	out := make([]byte, 1+des.BlockSize+len(padded))
	out[0] = byte(DES)
	iv := out[1 : 1+des.BlockSize]
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("metacrypt: iv: %w", err)
	}
	cipher.NewCBCEncrypter(block, iv).CryptBlocks(out[1+des.BlockSize:], padded)
	return out, nil
}

func (c *Cipher) openDES(rest []byte) ([]byte, error) {
	if len(rest) < des.BlockSize || (len(rest)-des.BlockSize)%des.BlockSize != 0 ||
		len(rest) == des.BlockSize {
		return nil, fmt.Errorf("%w: bad DES blob length %d", ErrMalformed, len(rest))
	}
	block, err := des.NewCipher(c.desKey)
	if err != nil {
		return nil, fmt.Errorf("metacrypt: des key: %w", err)
	}
	iv, ct := rest[:des.BlockSize], rest[des.BlockSize:]
	pt := make([]byte, len(ct))
	cipher.NewCBCDecrypter(block, iv).CryptBlocks(pt, ct)
	return unpadPKCS7(pt, des.BlockSize)
}

func (c *Cipher) sealAES(plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(c.aesKey)
	if err != nil {
		return nil, fmt.Errorf("metacrypt: aes key: %w", err)
	}
	out := make([]byte, 1+aes.BlockSize+len(plaintext))
	out[0] = byte(AES)
	iv := out[1 : 1+aes.BlockSize]
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("metacrypt: iv: %w", err)
	}
	cipher.NewCTR(block, iv).XORKeyStream(out[1+aes.BlockSize:], plaintext)
	return out, nil
}

func (c *Cipher) openAES(rest []byte) ([]byte, error) {
	if len(rest) < aes.BlockSize {
		return nil, fmt.Errorf("%w: bad AES blob length %d", ErrMalformed, len(rest))
	}
	block, err := aes.NewCipher(c.aesKey)
	if err != nil {
		return nil, fmt.Errorf("metacrypt: aes key: %w", err)
	}
	iv, ct := rest[:aes.BlockSize], rest[aes.BlockSize:]
	pt := make([]byte, len(ct))
	cipher.NewCTR(block, iv).XORKeyStream(pt, ct)
	return pt, nil
}

func padPKCS7(data []byte, blockSize int) []byte {
	pad := blockSize - len(data)%blockSize
	out := make([]byte, len(data)+pad)
	copy(out, data)
	for i := len(data); i < len(out); i++ {
		out[i] = byte(pad)
	}
	return out
}

func unpadPKCS7(data []byte, blockSize int) ([]byte, error) {
	if len(data) == 0 || len(data)%blockSize != 0 {
		return nil, fmt.Errorf("%w: bad padded length %d", ErrMalformed, len(data))
	}
	pad := int(data[len(data)-1])
	if pad < 1 || pad > blockSize || pad > len(data) {
		return nil, fmt.Errorf("%w: bad padding byte %d", ErrMalformed, pad)
	}
	for _, b := range data[len(data)-pad:] {
		if int(b) != pad {
			return nil, fmt.Errorf("%w: inconsistent padding", ErrMalformed)
		}
	}
	return data[:len(data)-pad], nil
}
