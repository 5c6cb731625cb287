package packet

import (
	"bytes"
	"testing"
)

// FuzzFrameRoundTrip checks that any packet the codec accepts survives a
// marshal → unmarshal round trip bit-exactly, both as a bare frame and as an
// engine datagram with the 4-byte session-ID header.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(2), byte(KindData), uint32(3), byte(0), byte(4), byte(6), []byte("payload"), uint32(42))
	f.Add(uint64(0), uint32(0), byte(KindParity), uint32(9), byte(5), byte(4), byte(6), []byte{}, uint32(0))
	f.Add(uint64(1<<63), uint32(1<<31), byte(KindControl), uint32(0), byte(255), byte(255), byte(255), bytes.Repeat([]byte{0xAB}, 1000), uint32(1<<31))
	f.Fuzz(func(t *testing.T, seq uint64, stream uint32, kind byte, group uint32, index, k, n byte, payload []byte, session uint32) {
		p := &Packet{
			Seq:      seq,
			StreamID: stream,
			Kind:     Kind(kind),
			Group:    group,
			Index:    index,
			K:        k,
			N:        n,
			Payload:  payload,
		}
		frame, err := Marshal(p)
		if err != nil {
			// Marshal only rejects invalid kinds and oversized payloads.
			if p.Kind.Valid() && len(payload) <= MaxPayload {
				t.Fatalf("Marshal rejected a valid packet: %v", err)
			}
			return
		}
		// AppendFrame must agree with Marshal.
		appended, err := AppendFrame(nil, p)
		if err != nil {
			t.Fatalf("AppendFrame failed after Marshal succeeded: %v", err)
		}
		if !bytes.Equal(frame, appended) {
			t.Fatal("AppendFrame and Marshal disagree")
		}

		got, consumed, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(p)) failed: %v", err)
		}
		if consumed != len(frame) {
			t.Fatalf("Unmarshal consumed %d of %d bytes", consumed, len(frame))
		}
		if got.Seq != p.Seq || got.StreamID != p.StreamID || got.Kind != p.Kind ||
			got.Group != p.Group || got.Index != p.Index || got.K != p.K || got.N != p.N ||
			!bytes.Equal(got.Payload, p.Payload) {
			t.Fatalf("round trip mismatch: sent %v, got %v", p, got)
		}

		// Datagram round trip: session ID header + frame.
		dgram, err := AppendDatagram(nil, session, p)
		if err != nil {
			t.Fatalf("AppendDatagram: %v", err)
		}
		id, rest, err := SplitSessionID(dgram)
		if err != nil {
			t.Fatalf("SplitSessionID: %v", err)
		}
		if id != session {
			t.Fatalf("session id round trip: sent %d, got %d", session, id)
		}
		if !bytes.Equal(rest, frame) {
			t.Fatal("datagram frame bytes corrupted")
		}
	})
}

// FuzzParseReportDatagram throws raw datagrams at the feedback wire path the
// engine's read loop runs: split the session-ID prefix, validate the frame,
// and parse the receiver report. Nothing may panic on arbitrary bytes, and
// every accepted report must survive a re-encode round trip bit-faithfully —
// the loss numbers steering a session's FEC level cannot afford codec drift.
func FuzzParseReportDatagram(f *testing.F) {
	if dgram, err := AppendReportDatagram(nil, 7, 3, 9, Report{HighestSeq: 42, Received: 90, Lost: 10, Window: 100}); err == nil {
		f.Add(dgram)
		f.Add(dgram[:len(dgram)-1]) // truncated payload
	}
	if dgram, err := AppendReportDatagram(nil, 0, 0, 0, Report{}); err == nil {
		f.Add(dgram)
	}
	if frame, err := Marshal(&Packet{Kind: KindData, Payload: []byte("not feedback")}); err == nil {
		f.Add(append(AppendSessionID(nil, 5), frame...))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, frame, err := SplitSessionID(data)
		if err != nil {
			return
		}
		// The engine's gate: only validated frames reach ParseReport.
		if ValidateFrame(frame) != nil {
			return
		}
		rep, err := ParseReport(frame)
		if err != nil {
			// Anything the engine would consume as feedback must either parse
			// or be a non-feedback kind / malformed payload — both rejected
			// without panicking, which reaching this point proves.
			return
		}
		if loss := rep.LossFraction(); loss < 0 || loss > 1 {
			t.Fatalf("LossFraction = %v out of [0,1] for %v", loss, rep)
		}
		// Round trip: re-encoding the parsed report must yield a datagram
		// whose report parses back identically, for the same session.
		p, _, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("validated feedback frame failed Unmarshal: %v", err)
		}
		redgram, err := AppendReportDatagram(nil, id, p.Seq, p.StreamID, rep)
		if err != nil {
			t.Fatalf("re-encode of accepted report failed: %v", err)
		}
		id2, frame2, err := SplitSessionID(redgram)
		if err != nil || id2 != id {
			t.Fatalf("re-encoded datagram session = %d, %v; want %d", id2, err, id)
		}
		rep2, err := ParseReport(frame2)
		if err != nil {
			t.Fatalf("re-encoded report failed ParseReport: %v", err)
		}
		if rep2 != rep {
			t.Fatalf("report round trip mismatch: sent %v, got %v", rep, rep2)
		}
	})
}

// FuzzParseNackDatagram throws raw datagrams at the NACK wire path the
// engine's read loop runs: split the session-ID prefix, validate the frame,
// and parse the retransmission request. Nothing may panic on arbitrary bytes,
// every accepted request must respect the MaxNackSeqs bound, and re-encoding
// the parsed seqs must round trip bit-faithfully.
func FuzzParseNackDatagram(f *testing.F) {
	if dgram, err := AppendNackDatagram(nil, 7, 1, 9, []uint64{3, 5, 8}); err == nil {
		f.Add(dgram)
		f.Add(dgram[:len(dgram)-1]) // truncated payload
	}
	if dgram, err := AppendNackDatagram(nil, 0, 0, 0, []uint64{0}); err == nil {
		f.Add(dgram)
	}
	if frame, err := Marshal(&Packet{Kind: KindFeedback, Payload: []byte("not a nack")}); err == nil {
		f.Add(append(AppendSessionID(nil, 5), frame...))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, frame, err := SplitSessionID(data)
		if err != nil {
			return
		}
		// The engine's gate: only validated frames reach ParseNack.
		if ValidateFrame(frame) != nil {
			return
		}
		var seqbuf [MaxNackSeqs]uint64
		seqs, err := ParseNack(frame, seqbuf[:0])
		if err != nil {
			return
		}
		if len(seqs) == 0 || len(seqs) > MaxNackSeqs {
			t.Fatalf("ParseNack returned %d seqs, want 1..%d", len(seqs), MaxNackSeqs)
		}
		// Round trip: re-encoding the parsed seqs must yield a datagram whose
		// request parses back identically, for the same session.
		p, _, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("validated nack frame failed Unmarshal: %v", err)
		}
		redgram, err := AppendNackDatagram(nil, id, p.Seq, p.StreamID, seqs)
		if err != nil {
			t.Fatalf("re-encode of accepted nack failed: %v", err)
		}
		id2, frame2, err := SplitSessionID(redgram)
		if err != nil || id2 != id {
			t.Fatalf("re-encoded datagram session = %d, %v; want %d", id2, err, id)
		}
		seqs2, err := ParseNack(frame2, nil)
		if err != nil {
			t.Fatalf("re-encoded nack failed ParseNack: %v", err)
		}
		if len(seqs2) != len(seqs) {
			t.Fatalf("nack round trip length mismatch: sent %d, got %d", len(seqs), len(seqs2))
		}
		for i := range seqs {
			if seqs[i] != seqs2[i] {
				t.Fatalf("nack round trip mismatch at %d: sent %d, got %d", i, seqs[i], seqs2[i])
			}
		}
	})
}

// FuzzDecodeNoPanic throws arbitrary bytes at every decode surface: Unmarshal,
// SplitSessionID, and the streaming Reader (both the decoding and the pooled
// raw-frame paths). Nothing may panic, and accepted input must re-encode.
func FuzzDecodeNoPanic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, Version, byte(KindData)})
	if frame, err := Marshal(&Packet{Kind: KindData, Payload: []byte("seed")}); err == nil {
		f.Add(frame)
		f.Add(AppendSessionID(nil, 7))
		if dgram, err := AppendDatagram(nil, 7, &Packet{Kind: KindParity, K: 4, N: 6, Payload: []byte("x")}); err == nil {
			f.Add(dgram)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, consumed, err := Unmarshal(data); err == nil {
			if consumed < HeaderSize || consumed > len(data) {
				t.Fatalf("Unmarshal consumed %d of %d bytes", consumed, len(data))
			}
			if _, err := Marshal(p); err != nil {
				t.Fatalf("re-marshal of accepted packet failed: %v", err)
			}
		}
		if id, frame, err := SplitSessionID(data); err == nil {
			if len(frame) != len(data)-SessionIDSize {
				t.Fatalf("SplitSessionID returned %d frame bytes from %d", len(frame), len(data))
			}
			_ = id
		} else if len(data) >= SessionIDSize {
			t.Fatalf("SplitSessionID rejected %d bytes: %v", len(data), err)
		}

		// Streaming reader: read as many frames as the bytes contain.
		pr := NewReader(bytes.NewReader(data))
		for {
			b, err := pr.ReadFrameBuf(SessionIDSize)
			if err != nil {
				break
			}
			// The frame after the headroom must itself decode.
			if _, _, err := Unmarshal(b.B[SessionIDSize:]); err != nil {
				t.Fatalf("ReadFrameBuf produced an undecodable frame: %v", err)
			}
			b.Release()
		}
	})
}
