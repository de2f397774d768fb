package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

// TestDecodeFrameRefusals: an empty body, a count of zero or over the
// carrier bound, trailing or missing bytes, a wrong version byte (a JSON
// array included), a length prefix past the bytes left, a non-minimal
// length and out-of-order map keys are refused. The over-bound count and
// the oversized length are refused before anything is decoded or
// allocated for them.
func TestDecodeFrameRefusals(t *testing.T) {
	one := EncodeFrame(sampleCarriers()[:1])
	body := one[2:] // one encoded carrier, after the version byte and count
	frameOf := func(count uint64, tail ...[]byte) []byte {
		b := binary.AppendUvarint([]byte{frameVersion}, count)
		for _, t := range tail {
			b = append(b, t...)
		}
		return b
	}
	over := frameOf(MaxFrameCarriers + 1)
	for i := 0; i <= MaxFrameCarriers; i++ {
		over = append(over, body...)
	}
	// A carrier whose method claims 1 GiB, with a few bytes behind it.
	huge := frameOf(1, binary.AppendUvarint(nil, 1<<30), []byte("POST/aire/repair"))
	cases := []struct {
		name, want string
		body       []byte
	}{
		{"empty", "empty body", nil},
		{"zero carriers", "no elements", frameOf(0)},
		{"over bound", "over its bound 256", over},
		{"count past the bytes left", "200 elements in", frameOf(200, body)},
		{"trailing", "1 trailing bytes", append(append([]byte(nil), one...), 0)},
		{"truncated", "truncated", one[:len(one)-1]},
		{"truncated count", "truncated", []byte{frameVersion}},
		{"wrong version", "version byte 0x2", append([]byte{frameVersion + 1}, one[1:]...)},
		{"JSON array", "version byte 0x5b", []byte(`[{"method":"POST","path":"/aire/repair"}]`)},
		{"length past the bytes left", "truncated: length 1073741824 over", huge},
		{"non-minimal length", "malformed length", frameOf(1, []byte{0x84, 0x00}, []byte("POST"), body[5:])},
		{"map keys out of order", "out of order", frameOf(1, []byte("\x04POST\x01/"), []byte("\x02\x01b\x00\x01a\x00"), []byte{0, 0})},
		{"repeated map key", "out of order", frameOf(1, []byte("\x04POST\x01/"), []byte("\x02\x01a\x00\x01a\x00"), []byte{0, 0})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := DecodeFrame(tc.body)
			if err == nil {
				t.Fatalf("decoded %d carriers, want a refusal", len(cs))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal %q does not say %q", err, tc.want)
			}
		})
	}
	// The over-bound count and the oversized length cost the decoder little
	// more than its error: the 47 KB over-bound body is never copied, nor
	// the 1 GiB length made.
	for name, b := range map[string][]byte{"over bound": over, "length past the bytes left": huge} {
		if n := allocBytes(func() { DecodeFrame(b) }); n > 2048 {
			t.Errorf("%s: refusal allocated %d bytes", name, n)
		}
	}
	// A reply is held to the same rules, and must answer every carrier.
	reply := EncodeFrameReply([]Response{NewResponse(200, "ok")})
	for name, b := range map[string][]byte{
		"empty":    nil,
		"JSON":     []byte(`[{"status":200}]`),
		"trailing": append(append([]byte(nil), reply...), 0),
	} {
		if _, err := DecodeFrameReply(b, 1); err == nil {
			t.Errorf("reply %s: accepted", name)
		}
	}
}

// allocBytes returns the bytes f allocates per call, averaged over 100
// calls.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 100
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
	big.Body = make([]byte, 5<<20) // 5 MiB raw in the frame: two do not fit under the cap
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
// panics, never returns more carriers than its bound (nor none), never
// allocates more than a small multiple of its input, and whatever it
// accepts re-encodes to exactly the bytes it was given.
func FuzzFrameDecode(f *testing.F) {
	f.Add(EncodeFrame(sampleCarriers()))
	f.Add(EncodeFrame(sampleCarriers()[:1]))
	f.Add(EncodeFrame([]Request{NewRequest("POST", "/aire/repair").WithHeader(HdrDeliveryID, "a-dlv-1")}))
	f.Add(EncodeFrameReply([]Response{NewResponse(200, "ok"), NewResponse(403, "denied")}))
	f.Add([]byte{frameVersion, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{frameVersion, 0})
	f.Add([]byte(`[{"method":"POST","path":"/aire/repair"}]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		if n := allocBytes(func() { DecodeFrame(b) }); n > maxDecodeBytes(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		if n := allocBytes(func() { DecodeFrameReply(b, 1) }); n > maxDecodeBytes(len(b)) {
			t.Fatalf("decoding a %d-byte reply allocated %d", len(b), n)
		}
		cs, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if len(cs) == 0 || len(cs) > MaxFrameCarriers {
			t.Fatalf("decoded %d carriers, bound is 1..%d", len(cs), MaxFrameCarriers)
		}
		if enc := EncodeFrame(cs); !bytes.Equal(enc, b) {
			t.Fatalf("frame does not round-trip:\n%x\n%x", b, enc)
		}
	})
}

// maxDecodeBytes bounds what decoding an n-byte body may allocate: the
// decoder's fixed cost plus a small multiple of n. The worst inputs are
// all-empty carriers (a 72-byte Request per 5 input bytes) and maps of
// one-byte keys (a map slot per 3 input bytes).
func maxDecodeBytes(n int) uint64 { return 1024 + 64*uint64(n) }
