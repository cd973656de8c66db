package flnet

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// TestMessageRoundTrip encodes and decodes a representative Message for
// every Kind with the plain codec, covering all fields including the
// handshake ones (Version, LastRound, WireCaps, Job, QuantSeed, TopK) and
// the KindError payload.
func TestMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		{Kind: KindHello, ClientID: 3, Version: ProtocolVersion, LastRound: -1, WireCaps: ClientCaps, Job: "celeba-a"},
		{Kind: KindHello, ClientID: 0, Version: ProtocolVersion, LastRound: 7},
		{Kind: KindWire, Version: ProtocolVersion, WireCaps: CapFlate | CapQuantInt8 | CapTopK, QuantSeed: -5, TopK: 0.25},
		{Kind: KindGlobal, Round: 4, State: []float64{0.25, -1.5, 3}},
		{Kind: KindUpdate, ClientID: 1, Round: 4, State: []float64{1, 2}, NumSamples: 128},
		{Kind: KindDone, State: []float64{0.5}},
		{Kind: KindError, Err: "flnet: version mismatch"},
	}
	for _, want := range msgs {
		t.Run(want.Kind.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, &want); err != nil {
				t.Fatal(err)
			}
			got, err := ReadMessage(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != want.Kind || got.ClientID != want.ClientID ||
				got.Round != want.Round || got.NumSamples != want.NumSamples ||
				got.Version != want.Version || got.LastRound != want.LastRound ||
				got.Err != want.Err || got.Job != want.Job || got.WireCaps != want.WireCaps ||
				got.QuantSeed != want.QuantSeed || got.TopK != want.TopK {
				t.Fatalf("round trip mismatch: got %+v want %+v", *got, want)
			}
			if len(got.State) != len(want.State) {
				t.Fatalf("state length %d, want %d", len(got.State), len(want.State))
			}
			for i := range want.State {
				if got.State[i] != want.State[i] {
					t.Fatalf("state[%d] = %v, want %v", i, got.State[i], want.State[i])
				}
			}
		})
	}
}

// frame builds a raw frame with an arbitrary header length and payload,
// bypassing WriteMessage's consistency.
func frame(length uint32, payload []byte) []byte {
	var header [4]byte
	binary.LittleEndian.PutUint32(header[:], length)
	return append(header[:], payload...)
}

// TestReadMessageMalformed table-drives the plain decoder's failure paths:
// truncated headers and payloads, out-of-range length prefixes, and
// payloads that are not v3 frames.
func TestReadMessageMalformed(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &Message{Kind: KindHello, Version: ProtocolVersion, LastRound: -1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name    string
		raw     []byte
		wantErr string
	}{
		{"empty", nil, "read header"},
		{"truncated header", valid[:3], "read header"},
		{"zero length", frame(0, nil), "length 0 out of range"},
		{"over max length", frame(maxFrameBytes+1, nil), "out of range"},
		{"max uint32 length", frame(^uint32(0), nil), "out of range"},
		{"truncated payload", valid[:len(valid)-1], "read payload"},
		{"header only", valid[:4], "read payload"},
		{"garbage payload", frame(minFrameLen, bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, minFrameLen/4)), "bad frame magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg, err := ReadMessage(bytes.NewReader(tc.raw))
			if err == nil {
				t.Fatalf("expected error, got message %+v", *msg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReadMessageTrailingData ensures a decoder consumes exactly one
// frame, leaving subsequent frames intact on the stream.
func TestReadMessageTrailingData(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteMessage(&buf, &Message{Kind: KindGlobal, Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Round != i {
			t.Fatalf("frame %d decoded round %d", i, msg.Round)
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("expected EOF error after last frame")
	}
}

// FuzzReadMessage throws arbitrary bytes at ReadHello, the plain decoder
// every registrant's first frame goes through (server registration and the
// service front door): it must either return a message or an error, never
// panic, never consume more than the frame it returns, and anything it
// accepts must survive a round trip.
func FuzzReadMessage(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Kind: KindHello, ClientID: 1, Version: ProtocolVersion, LastRound: 2, WireCaps: ClientCaps, Job: "job-1"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(frame(^uint32(0), []byte("x")))
	f.Add(frame(maxHelloBytes, []byte{frameMagic, byte(KindHello)}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bytes.NewReader(raw)
		frameBytes, msg, err := ReadHello(r)
		if err != nil {
			return
		}
		if len(frameBytes)+r.Len() != len(raw) || !bytes.Equal(frameBytes, raw[:len(frameBytes)]) {
			t.Fatalf("ReadHello returned %d bytes that are not the %d it consumed", len(frameBytes), len(raw)-r.Len())
		}
		// A successfully decoded message must survive a round trip.
		var out bytes.Buffer
		if err := WriteMessage(&out, msg); err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		again, err := ReadMessage(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Kind != msg.Kind || again.ClientID != msg.ClientID || again.Round != msg.Round ||
			again.Job != msg.Job || again.Err != msg.Err || again.WireCaps != msg.WireCaps || again.QuantSeed != msg.QuantSeed {
			t.Fatalf("round trip changed message: %+v vs %+v", *again, *msg)
		}
	})
}

// TestPooledBuffersBigThenSmall round-trips a large frame followed by many
// small ones: the pooled write buffer and read payload keep their high-water
// capacity, so any stale-tail or length-accounting bug in the pooling shows
// up as corrupt small frames. It also checks decoded state never aliases the
// pooled payload (messages must stay valid after the pool buffer is reused).
func TestPooledBuffersBigThenSmall(t *testing.T) {
	big := make([]float64, 100_000)
	for i := range big {
		big[i] = float64(i) * 0.5
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Kind: KindGlobal, Round: 0, State: big}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		msg := &Message{Kind: KindUpdate, ClientID: i, Round: i, State: []float64{float64(i)}, NumSamples: i}
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
	}

	first, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.State) != len(big) {
		t.Fatalf("big frame state length %d, want %d", len(first.State), len(big))
	}
	for i := 1; i <= 8; i++ {
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("small frame %d after big: %v", i, err)
		}
		if msg.ClientID != i || msg.Round != i || msg.NumSamples != i ||
			len(msg.State) != 1 || msg.State[0] != float64(i) {
			t.Fatalf("small frame %d corrupted: %+v", i, *msg)
		}
	}
	// The big message must have survived the pool reuse above untouched.
	for i, v := range first.State {
		if v != float64(i)*0.5 {
			t.Fatalf("big state[%d] = %v after pool reuse, want %v", i, v, float64(i)*0.5)
		}
	}
}
