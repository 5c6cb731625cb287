package fec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"rapidware/internal/gf256"
)

// TestEncodeEraseDecodeRoundTrip is the end-to-end property behind the FEC
// proxy: for random (n,k), random share sizes and any erasure pattern within
// the repair budget (up to n-k losses), decoding the surviving shares must
// reproduce the sources exactly.
func TestEncodeEraseDecodeRoundTrip(t *testing.T) {
	prop := func(kSeed, nSeed uint8, sizeSeed uint16, rngSeed int64) bool {
		k := int(kSeed)%12 + 1        // 1..12
		n := k + int(nSeed)%6 + 1     // k+1 .. k+6
		size := int(sizeSeed)%512 + 1 // 1..512 bytes per share
		rng := rand.New(rand.NewSource(rngSeed))

		coder, err := NewCoder(Params{K: k, N: n})
		if err != nil {
			t.Logf("NewCoder(%d,%d): %v", n, k, err)
			return false
		}
		sources := make([][]byte, k)
		for i := range sources {
			sources[i] = make([]byte, size)
			rng.Read(sources[i])
		}
		shares, err := coder.Encode(sources)
		if err != nil {
			t.Logf("Encode: %v", err)
			return false
		}

		// Erase up to n-k random shares.
		erasures := rng.Intn(n - k + 1)
		perm := rng.Perm(n)
		have := make(map[int][]byte, n-erasures)
		for _, idx := range perm[erasures:] {
			have[idx] = shares[idx]
		}

		decoded, err := coder.Decode(have)
		if err != nil {
			t.Logf("Decode with %d erasures: %v", erasures, err)
			return false
		}
		for i := range sources {
			if !bytes.Equal(decoded[i], sources[i]) {
				t.Logf("source %d corrupted after %d erasures (n=%d k=%d size=%d)", i, erasures, n, k, size)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeParityIntoMatchesEncode proves the pooled (in-place) parity path
// agrees with the allocating one for random inputs.
func TestEncodeParityIntoMatchesEncode(t *testing.T) {
	prop := func(kSeed, nSeed uint8, sizeSeed uint16, rngSeed int64) bool {
		k := int(kSeed)%10 + 1
		n := k + int(nSeed)%5 + 1
		size := int(sizeSeed)%256 + 1
		rng := rand.New(rand.NewSource(rngSeed))

		coder, err := NewCoder(Params{K: k, N: n})
		if err != nil {
			return false
		}
		sources := make([][]byte, k)
		for i := range sources {
			sources[i] = make([]byte, size)
			rng.Read(sources[i])
		}
		want, err := coder.EncodeParity(sources)
		if err != nil {
			return false
		}
		// Dirty destination slices: EncodeParityInto must overwrite fully.
		got := make([][]byte, n-k)
		for i := range got {
			got[i] = bytes.Repeat([]byte{0xFF}, size)
		}
		if err := coder.EncodeParityInto(sources, got); err != nil {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeParityIntoMatchesScalar checks the parity encode against the
// scalar definition of the code: parity row i is the sum over sources j of
// generator[k+i][j] * source j, one gf256.Mul per byte. It sweeps every code
// with k in {1,2,4,8,16} and n-k in {1,2,4,8} over share sizes around the
// word, vector-block and 4 KiB boundaries, and writes over stale parity.
func TestEncodeParityIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sizes := []int{1, 2, 15, 16, 17, 320, 1202, 4095, 4096, 4129}
	for _, k := range []int{1, 2, 4, 8, 16} {
		for _, m := range []int{1, 2, 4, 8} {
			coder, err := NewCoder(Params{K: k, N: k + m})
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range sizes {
				sources := make([][]byte, k)
				for j := range sources {
					sources[j] = make([]byte, size)
					rng.Read(sources[j])
				}
				got := make([][]byte, m)
				want := make([][]byte, m)
				for i := range got {
					got[i] = make([]byte, size)
					rng.Read(got[i]) // stale contents must be overwritten
					want[i] = make([]byte, size)
					row := coder.enc.Row(k + i)
					for j, src := range sources {
						for b := range src {
							want[i][b] ^= gf256.Mul(row[j], src[b])
						}
					}
				}
				if err := coder.EncodeParityInto(sources, got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("(%d,%d) size=%d parity %d diverges from scalar", k+m, k, size, i)
					}
				}
			}
		}
	}
}

func TestEncodeParityIntoValidation(t *testing.T) {
	coder, err := NewCoder(Params{K: 4, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	sources := [][]byte{{1}, {2}, {3}, {4}}
	if err := coder.EncodeParityInto(sources, [][]byte{make([]byte, 1)}); err == nil {
		t.Fatal("wrong parity count accepted")
	}
	if err := coder.EncodeParityInto(sources, [][]byte{make([]byte, 1), make([]byte, 2)}); err == nil {
		t.Fatal("wrong parity size accepted")
	}
	if err := coder.EncodeParityInto(sources, [][]byte{make([]byte, 1), make([]byte, 1)}); err != nil {
		t.Fatalf("valid call rejected: %v", err)
	}
}
