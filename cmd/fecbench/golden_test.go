package main

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"
)

// goldenTables pins the CRC-32 and byte length of every deterministic
// experiment's table, at its default flags and at -seed 5. A rewrite of the
// pipeline the figures run on must leave every random draw where it was, so
// these stay put. liveinsert is left out: its latency lines are wall-clock.
var goldenTables = map[string]struct {
	crc uint32
	n   int
}{
	"figure7":           {0x02640ae7, 784},
	"figure7 -seed 5":   {0x039110e8, 784},
	"distance":          {0x616d5747, 458},
	"distance -seed 5":  {0xf84382a2, 458},
	"adaptive":          {0x629692ae, 418},
	"adaptive -seed 5":  {0x6434f6cb, 418},
	"groupsize":         {0x31b1b6ac, 504},
	"groupsize -seed 5": {0x216445ba, 504},
	"repair":            {0x91e85417, 314},
	"repair -seed 5":    {0xf8b3fc02, 314},
}

func TestGoldenTables(t *testing.T) {
	for _, name := range []string{"figure7", "distance", "adaptive", "groupsize", "repair"} {
		for _, extra := range [][]string{nil, {"-seed", "5"}} {
			args := append([]string{"-experiment", name}, extra...)
			key := strings.Join(args[1:], " ")
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			crc, n := crc32.ChecksumIEEE(out.Bytes()), out.Len()
			t.Logf("%q: {0x%08x, %d},", key, crc, n)
			want, ok := goldenTables[key]
			if !ok {
				t.Errorf("%q has no golden table: {0x%08x, %d}", key, crc, n)
				continue
			}
			if crc != want.crc || n != want.n {
				t.Errorf("%q: table CRC-32 0x%08x over %d bytes, want 0x%08x over %d", key, crc, n, want.crc, want.n)
			}
		}
	}
}
