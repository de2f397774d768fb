package wire

import (
	"bytes"
	"strings"
	"testing"
)

func sampleCarriers() []Request {
	repair := NewRequest("POST", "/aire/repair").WithHeader(HdrRepair, "replace", HdrRequestID, "b-req-1",
		HdrDeliveryID, "a-dlv-7", HdrGeneration, "2", HdrOrigin, "a")
	repair.Body = NewRequest("POST", "/put").WithForm("key", "x", "val", "good").Encode()
	notify := NewRequest("POST", "/aire/notify").WithForm("token", "a-tok-3", "server", "a")
	return []Request{repair, notify}
}

// TestFrameRoundTrip: what EncodeFrame writes decodes to the same carriers,
// and a reply answers them in order.
func TestFrameRoundTrip(t *testing.T) {
	cs := sampleCarriers()
	got, err := DecodeFrame(EncodeFrame(cs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cs) {
		t.Fatalf("decoded %d carriers, want %d", len(got), len(cs))
	}
	for i := range cs {
		if !bytes.Equal(got[i].Encode(), cs[i].Encode()) {
			t.Fatalf("carrier %d: got %s, want %s", i, got[i].Encode(), cs[i].Encode())
		}
	}
	resps := []Response{NewResponse(200, "ok"), NewResponse(403, "denied")}
	back, err := DecodeFrameReply(EncodeFrameReply(resps), 2)
	if err != nil || back[0].Status != 200 || back[1].Status != 403 {
		t.Fatalf("reply round trip: %v %+v", err, back)
	}
	if _, err := DecodeFrameReply(EncodeFrameReply(resps), 3); err == nil {
		t.Fatal("a reply answering 2 of 3 carriers was accepted")
	}
}

// TestDecodeFrameRefusals: empty, over-bound, trailing and non-array bodies
// are refused.
func TestDecodeFrameRefusals(t *testing.T) {
	over := "[" + strings.Repeat(`{"method":"POST","path":"/aire/repair"},`, MaxFrameCarriers) + `{"method":"POST","path":"/aire/repair"}]`
	for name, body := range map[string]string{
		"empty array":  "[]",
		"not an array": `{"method":"POST"}`,
		"trailing":     `[{"method":"POST","path":"/aire/repair"}] x`,
		"truncated":    `[{"method":"POST","path":"/aire/repair"}`,
		"over bound":   over,
		"bad element":  `[1]`,
	} {
		if cs, err := DecodeFrame([]byte(body)); err == nil {
			t.Errorf("%s: decoded %d carriers, want a refusal", name, len(cs))
		}
	}
}

// TestPackFramesBounds: frames never exceed the carrier bound or the body
// cap, keep carrier order, and a carrier over the cap travels alone.
func TestPackFramesBounds(t *testing.T) {
	small := make([]Request, 2*MaxFrameCarriers+3)
	for i := range small {
		small[i] = NewRequest("POST", "/aire/repair").WithForm("i", strings.Repeat("x", i%7))
	}
	bodies, counts := PackFrames(small)
	if len(bodies) != 3 || counts[0] != MaxFrameCarriers || counts[2] != 3 {
		t.Fatalf("packed %d frames with counts %v, want 3 frames of 256, 256, 3", len(bodies), counts)
	}
	var all []Request
	for _, b := range bodies {
		cs, err := DecodeFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, cs...)
	}
	for i := range small {
		if !bytes.Equal(all[i].Encode(), small[i].Encode()) {
			t.Fatalf("carrier %d reordered or changed", i)
		}
	}

	big := NewRequest("POST", "/aire/repair")
	big.Body = make([]byte, 5<<20) // base64 in the frame: ~6.7 MiB
	bodies, counts = PackFrames([]Request{big, big, small[0]})
	if len(bodies) != 2 || counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("big carriers packed as %v, want [1 2]", counts)
	}
	for _, b := range bodies {
		if len(b) > MaxBodyBytes {
			t.Fatalf("frame of %d bytes exceeds the %d cap", len(b), MaxBodyBytes)
		}
	}
}

// FuzzFrameDecode: the frame decoder faces untrusted bytes. It never
// panics, never returns more carriers than its bound (nor none), and
// whatever it accepts round-trips through EncodeFrame.
func FuzzFrameDecode(f *testing.F) {
	f.Add(EncodeFrame(sampleCarriers()))
	f.Add(EncodeFrame(sampleCarriers()[:1]))
	f.Add([]byte(`[{"method":"POST","path":"/aire/repair","header":{"Aire-Delivery-Id":"a-dlv-1"},"body":"AA=="}]`))
	f.Add([]byte(`[null]`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		cs, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if len(cs) == 0 || len(cs) > MaxFrameCarriers {
			t.Fatalf("decoded %d carriers, bound is 1..%d", len(cs), MaxFrameCarriers)
		}
		enc := EncodeFrame(cs)
		again, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded frame: %v", err)
		}
		if !bytes.Equal(EncodeFrame(again), enc) {
			t.Fatalf("frame does not round-trip:\n%s\n%s", enc, EncodeFrame(again))
		}
	})
}
