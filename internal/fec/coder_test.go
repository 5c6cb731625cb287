package fec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCoder(t testing.TB, k, n int) *Coder {
	t.Helper()
	c, err := NewCoder(Params{K: k, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomSources(rng *rand.Rand, k, size int) [][]byte {
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, size)
		rng.Read(src[i])
	}
	return src
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p    Params
		ok   bool
		name string
	}{
		{Params{K: 4, N: 6}, true, "paper (6,4)"},
		{Params{K: 1, N: 1}, true, "degenerate k=n"},
		{Params{K: 8, N: 12}, true, "(12,8)"},
		{Params{K: 0, N: 6}, false, "zero k"},
		{Params{K: 4, N: 0}, false, "zero n"},
		{Params{K: 7, N: 6}, false, "k>n"},
		{Params{K: 4, N: 300}, false, "n too large"},
		{Params{K: -1, N: 4}, false, "negative k"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate(%v) err = %v, want ok=%v", c.p, err, c.ok)
			}
			if err != nil && !errors.Is(err, ErrBadParams) {
				t.Fatalf("err = %v, want ErrBadParams", err)
			}
		})
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{K: 4, N: 6}
	if p.Parity() != 2 {
		t.Fatalf("Parity = %d, want 2", p.Parity())
	}
	if p.String() != "(6,4)" {
		t.Fatalf("String = %q, want (6,4)", p.String())
	}
}

func TestNewCoderRejectsBadParams(t *testing.T) {
	if _, err := NewCoder(Params{K: 5, N: 3}); err == nil {
		t.Fatal("expected error for k>n")
	}
}

func TestEncodeIsSystematic(t *testing.T) {
	c := mustCoder(t, 4, 6)
	rng := rand.New(rand.NewSource(1))
	src := randomSources(rng, 4, 128)
	shares, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 6 {
		t.Fatalf("len(shares) = %d, want 6", len(shares))
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(shares[i], src[i]) {
			t.Fatalf("share %d differs from source (code not systematic)", i)
		}
	}
}

func TestEncodeDoesNotAliasSources(t *testing.T) {
	c := mustCoder(t, 2, 3)
	src := [][]byte{{1, 2}, {3, 4}}
	shares, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0][0] = 99
	if shares[0][0] == 99 {
		t.Fatal("encoded share aliases the source slice")
	}
}

func TestEncodeValidation(t *testing.T) {
	c := mustCoder(t, 3, 5)
	if _, err := c.Encode([][]byte{{1}, {2}}); !errors.Is(err, ErrShareSize) {
		t.Fatalf("wrong count: err = %v, want ErrShareSize", err)
	}
	if _, err := c.Encode([][]byte{{1}, {2}, {}}); !errors.Is(err, ErrShareSize) {
		t.Fatalf("empty source: err = %v, want ErrShareSize", err)
	}
	if _, err := c.Encode([][]byte{{1, 2}, {3}, {4, 5}}); !errors.Is(err, ErrShareSize) {
		t.Fatalf("unequal sizes: err = %v, want ErrShareSize", err)
	}
}

func TestDecodeAllDataPresentFastPath(t *testing.T) {
	c := mustCoder(t, 4, 6)
	rng := rand.New(rand.NewSource(2))
	src := randomSources(rng, 4, 64)
	shares, _ := c.Encode(src)
	have := map[int][]byte{0: shares[0], 1: shares[1], 2: shares[2], 3: shares[3]}
	got, err := c.Decode(have)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if !bytes.Equal(got[i], src[i]) {
			t.Fatalf("source %d mismatch", i)
		}
	}
}

func TestDecodeEveryErasurePatternPaperCode(t *testing.T) {
	// The paper's (6,4) code: any 2 losses must be recoverable.
	c := mustCoder(t, 4, 6)
	rng := rand.New(rand.NewSource(3))
	src := randomSources(rng, 4, 96)
	shares, _ := c.Encode(src)
	n := 6
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			have := make(map[int][]byte)
			for i := 0; i < n; i++ {
				if i != a && i != b {
					have[i] = shares[i]
				}
			}
			got, err := c.Decode(have)
			if err != nil {
				t.Fatalf("erasures {%d,%d}: %v", a, b, err)
			}
			for i := range src {
				if !bytes.Equal(got[i], src[i]) {
					t.Fatalf("erasures {%d,%d}: source %d mismatch", a, b, i)
				}
			}
		}
	}
}

func TestDecodeFromParityOnly(t *testing.T) {
	// (8,4): lose all four data packets, recover from the four parities.
	c := mustCoder(t, 4, 8)
	rng := rand.New(rand.NewSource(4))
	src := randomSources(rng, 4, 32)
	shares, _ := c.Encode(src)
	have := map[int][]byte{4: shares[4], 5: shares[5], 6: shares[6], 7: shares[7]}
	got, err := c.Decode(have)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if !bytes.Equal(got[i], src[i]) {
			t.Fatalf("source %d mismatch when decoding from parity only", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	c := mustCoder(t, 3, 5)
	rng := rand.New(rand.NewSource(5))
	src := randomSources(rng, 3, 16)
	shares, _ := c.Encode(src)

	t.Run("not enough shares", func(t *testing.T) {
		have := map[int][]byte{0: shares[0], 1: shares[1]}
		if _, err := c.Decode(have); !errors.Is(err, ErrNotEnoughShares) {
			t.Fatalf("err = %v, want ErrNotEnoughShares", err)
		}
	})
	t.Run("bad index", func(t *testing.T) {
		have := map[int][]byte{0: shares[0], 1: shares[1], 9: shares[2]}
		if _, err := c.Decode(have); !errors.Is(err, ErrShareIndex) {
			t.Fatalf("err = %v, want ErrShareIndex", err)
		}
	})
	t.Run("unequal sizes", func(t *testing.T) {
		have := map[int][]byte{0: shares[0], 1: shares[1][:4], 2: shares[2]}
		if _, err := c.Decode(have); !errors.Is(err, ErrShareSize) {
			t.Fatalf("err = %v, want ErrShareSize", err)
		}
	})
	t.Run("empty share", func(t *testing.T) {
		have := map[int][]byte{0: shares[0], 1: {}, 2: shares[2]}
		if _, err := c.Decode(have); !errors.Is(err, ErrShareSize) {
			t.Fatalf("err = %v, want ErrShareSize", err)
		}
	})
}

func TestEncodeParity(t *testing.T) {
	c := mustCoder(t, 4, 6)
	rng := rand.New(rand.NewSource(6))
	src := randomSources(rng, 4, 48)
	parity, err := c.EncodeParity(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 2 {
		t.Fatalf("len(parity) = %d, want 2", len(parity))
	}
	full, _ := c.Encode(src)
	for i := range parity {
		if !bytes.Equal(parity[i], full[4+i]) {
			t.Fatalf("parity %d differs between Encode and EncodeParity", i)
		}
	}
}

// TestRoundTripProperty drives random (n,k), share sizes and erasure patterns
// through encode/decode and requires exact reconstruction whenever at least k
// shares survive.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		n := k + rng.Intn(8)
		size := 1 + rng.Intn(256)
		c, err := NewCoder(Params{K: k, N: n})
		if err != nil {
			return false
		}
		src := randomSources(rng, k, size)
		shares, err := c.Encode(src)
		if err != nil {
			return false
		}
		// Keep a random subset of exactly k shares.
		perm := rng.Perm(n)[:k]
		have := make(map[int][]byte, k)
		for _, idx := range perm {
			have[idx] = shares[idx]
		}
		got, err := c.Decode(have)
		if err != nil {
			return false
		}
		for i := range src {
			if !bytes.Equal(got[i], src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCoderConcurrentUse(t *testing.T) {
	c := mustCoder(t, 4, 6)
	rng := rand.New(rand.NewSource(7))
	src := randomSources(rng, 4, 512)
	shares, _ := c.Encode(src)
	done := make(chan bool, 8)
	for g := 0; g < 8; g++ {
		go func() {
			ok := true
			for i := 0; i < 50; i++ {
				have := map[int][]byte{1: shares[1], 2: shares[2], 4: shares[4], 5: shares[5]}
				got, err := c.Decode(have)
				if err != nil || !bytes.Equal(got[0], src[0]) {
					ok = false
					break
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent decode produced wrong data")
		}
	}
}
