package he

import (
	"testing"
)

// FuzzUnmarshalPublicKey ensures arbitrary bytes never panic the key parser.
func FuzzUnmarshalPublicKey(f *testing.F) {
	k := testKey(nil)
	f.Add(MarshalPublicKey(&k.PublicKey))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 7})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		pk, err := UnmarshalPublicKey(data)
		if err != nil {
			return
		}
		if pk.N == nil || pk.N2 == nil || pk.G == nil {
			t.Fatal("accepted key with nil components")
		}
	})
}

// FuzzUnmarshalPrivateKey mirrors the public-key fuzzing for private keys.
func FuzzUnmarshalPrivateKey(f *testing.F) {
	k := testKey(nil)
	f.Add(MarshalPrivateKey(k))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := UnmarshalPrivateKey(data)
		if err != nil {
			return
		}
		if sk.N == nil || sk.Lambda == nil || sk.Mu == nil {
			t.Fatal("accepted key with nil components")
		}
	})
}

// FuzzPaillierDecrypt ensures decrypting arbitrary ciphertext bytes returns
// an error or a value — never a panic.
func FuzzPaillierDecrypt(f *testing.F) {
	k := testKey(nil)
	s := NewPaillier(&k.PublicKey, k)
	good, _ := s.Encrypt(1.5)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(make([]byte, 600))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = s.Decrypt(data)
	})
}

// FuzzPlainDecrypt exercises the plain decoder: no blob may panic it, and
// any blob it accepts is exactly 8 bytes.
func FuzzPlainDecrypt(f *testing.F) {
	s := NewPlain()
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := s.Decrypt(data); err == nil && len(data) != plainSize {
			t.Fatalf("Decrypt accepted a %d-byte blob", len(data))
		}
		_, _ = s.Add(data, data)
	})
}
