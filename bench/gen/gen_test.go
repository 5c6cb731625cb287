package gen

import (
	"bytes"
	"testing"

	"rapidware/internal/fec"
	"rapidware/internal/packet"
)

func TestDatagramIsAFunctionOfSeedAndSession(t *testing.T) {
	a, err := Datagram(7, FirstSession, 320)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Datagram(7, FirstSession, 320)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and session gave different datagrams")
	}
	otherSeed, _ := Datagram(8, FirstSession, 320)
	otherSession, _ := Datagram(7, FirstSession+1, 320)
	if bytes.Equal(a[PayloadOff:], otherSeed[PayloadOff:]) || bytes.Equal(a[PayloadOff:], otherSession[PayloadOff:]) {
		t.Fatal("payload does not depend on seed and session")
	}
	if len(a) != PayloadOff+320 {
		t.Fatalf("datagram is %d bytes, want %d", len(a), PayloadOff+320)
	}
	if _, err := Datagram(7, FirstSession, TagSize); err == nil {
		t.Fatal("a payload with no room for a body was accepted")
	}
}

func TestStampAndReadTagRoundTrip(t *testing.T) {
	d, _ := Datagram(1, FirstSession, 64)
	Stamp(d, 41, 123456789)
	id, frame, err := packet.SplitSessionID(d)
	if err != nil || id != FirstSession || packet.ValidateFrame(frame) != nil {
		t.Fatalf("stamped datagram no longer parses: id %d, %v", id, err)
	}
	tag, ok := ReadTag(d[PayloadOff:])
	if !ok || !tag.Intact || tag.Index != 41 || tag.StampNs != 123456789 {
		t.Fatalf("tag = %+v ok=%v", tag, ok)
	}
	d[len(d)-1] ^= 1
	if tag, _ := ReadTag(d[PayloadOff:]); tag.Intact {
		t.Fatal("a flipped body bit went unnoticed")
	}
}

func TestEraserIsSeededAndMatchesItsChannel(t *testing.T) {
	ch := Channel{Mean: 0.05, Burst: 2}
	a, b := NewEraser(3, FirstSession, ch), NewEraser(3, FirstSession, ch)
	const n = 400_000
	erased, bursts, run := 0, 0, false
	for i := 0; i < n; i++ {
		x := a.Erased()
		if x != b.Erased() {
			t.Fatalf("share %d: same seed, different fate", i)
		}
		if x {
			erased++
			if !run {
				bursts++
			}
		}
		run = x
	}
	mean := float64(erased) / n
	burst := float64(erased) / float64(bursts)
	if mean < 0.045 || mean > 0.055 {
		t.Errorf("mean loss %.4f, want about %.2f", mean, ch.Mean)
	}
	if burst < 1.9 || burst > 2.1 {
		t.Errorf("mean burst %.3f, want about %.0f", burst, ch.Burst)
	}
}

// TestFateMatchesTheDecoder replays erased groups through the repository's
// own block decoder: the fate's delivery order, repair count and
// recoverability must be exactly what fec.BlockDecoder does with the shares
// that were sent. The generator's oracle rests on this bookkeeping.
func TestFateMatchesTheDecoder(t *testing.T) {
	code := fec.Params{N: 12, K: 8}
	const slots = 16
	pool, err := GroupPool(5, FirstSession, 200, slots, code)
	if err != nil {
		t.Fatal(err)
	}
	// A harsher channel than the workload's, so every case occurs.
	eraser := NewEraser(5, FirstSession, Channel{Mean: 0.25, Burst: 2})
	dec := fec.NewBlockDecoder(0)
	var repairs, unrecoverable, recoverableGroups int
	for g := 0; g < 400; g++ {
		fate := eraser.NextFate(code)
		slot := g % slots
		before := dec.Recovered()
		var got []int
		arrived := 0
		for i, dgram := range pool[slot].Shares {
			if !fate.Sent[i] {
				continue
			}
			arrived++
			StampShare(dgram, uint64(g*code.N+i), uint32(g))
			p, _, err := packet.Unmarshal(dgram[packet.SessionIDSize:])
			if err != nil {
				t.Fatal(err)
			}
			outs, err := dec.Add(p)
			if err != nil {
				t.Fatalf("group %d share %d: %v", g, i, err)
			}
			for _, o := range outs {
				if o.Kind != packet.KindData {
					continue
				}
				tag, ok := ReadTag(o.Payload)
				if !ok || !tag.Intact {
					t.Fatalf("group %d: decoder output fails its own CRC", g)
				}
				got = append(got, int(tag.Index)-slot*code.K)
			}
		}
		if len(got) != len(fate.Order) {
			t.Fatalf("group %d (sent %v): decoder delivered %v, fate says %v", g, fate.Sent, got, fate.Order)
		}
		for i := range got {
			if got[i] != fate.Order[i] {
				t.Fatalf("group %d (sent %v): decoder delivered %v, fate says %v", g, fate.Sent, got, fate.Order)
			}
		}
		if d := int(dec.Recovered() - before); d != fate.Repairs {
			t.Fatalf("group %d: decoder repaired %d, fate says %d", g, d, fate.Repairs)
		}
		if (arrived >= code.K) != (fate.Unrecoverable == 0) {
			t.Fatalf("group %d: %d shares arrived but fate says %d unrecoverable", g, arrived, fate.Unrecoverable)
		}
		if len(fate.Order)+fate.Unrecoverable != code.K {
			t.Fatalf("group %d: %d delivered + %d unrecoverable != k", g, len(fate.Order), fate.Unrecoverable)
		}
		repairs += fate.Repairs
		unrecoverable += fate.Unrecoverable
		if arrived >= code.K {
			recoverableGroups++
		}
	}
	if repairs == 0 || unrecoverable == 0 || recoverableGroups == 400 {
		t.Fatalf("channel too kind to test anything: %d repairs, %d unrecoverable", repairs, unrecoverable)
	}
}

func TestGroupPoolParityDecodes(t *testing.T) {
	code := fec.Params{N: 6, K: 4}
	pool, err := GroupPool(9, FirstSession, 100, 2, code)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := GroupPool(9, FirstSession, 100, 2, code)
	coder, _ := fec.CoderFor(code)
	for g := range pool {
		have := map[int][]byte{}
		for i := code.N - code.K; i < code.N; i++ { // drop the first n-k data shares
			payload := pool[g].Shares[i][PayloadOff:]
			if !bytes.Equal(pool[g].Shares[i], again[g].Shares[i]) {
				t.Fatalf("group %d share %d differs between two builds of one seed", g, i)
			}
			if i < code.K {
				have[i] = DataShare(payload, 102)
			} else {
				have[i] = payload
			}
		}
		out, err := coder.Decode(have)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < code.N-code.K; i++ {
			if want := DataShare(pool[g].Shares[i][PayloadOff:], 102); !bytes.Equal(out[i], want) {
				t.Fatalf("group %d: share %d does not come back from the pool's parity", g, i)
			}
		}
	}
}

func TestCatalogueIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range Workloads() {
		if seen[w.Name] || w.Name == "" {
			t.Errorf("workload name %q empty or repeated", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
		if w.Sockets < 1 || w.Payload <= TagSize || len(w.Path) == 0 {
			t.Errorf("%s: incomplete entry", w.Name)
		}
		if got, ok := Lookup(w.Name); !ok || got.Name != w.Name {
			t.Errorf("Lookup(%q) failed", w.Name)
		}
	}
	if len(seen) != 6 {
		t.Errorf("%d workloads, want 6", len(seen))
	}
}
