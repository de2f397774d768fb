package repairlog

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"aire/internal/vdb"
	"aire/internal/wire"
)

func checkEncodedLen(t *testing.T, name string, r *Record) {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	if got := encodedLen(r); got != len(b) {
		t.Errorf("%s: encodedLen = %d, json.Marshal = %d bytes: %s", name, got, len(b), b)
	}
}

func TestEncodedLen(t *testing.T) {
	base := func() *Record { return rec("svc-req-1", 10) }
	strs := map[string]string{
		"empty":        "",
		"html":         "<a href=\"x\">&amp;</a>",
		"short-esc":    "\"\\\b\f\n\r\t",
		"control":      "\x00\x01\x1f\x7f",
		"invalid-utf8": "a\xffb\xc3",
		"separators":   "x\u2028y\u2029z",
		"multibyte":    "héllo wörld ☃ 𝄞",
	}
	cases := map[string]func(*Record){
		"minimal": func(*Record) {},
		"nil-vs-empty": func(r *Record) {
			r.Req.Header, r.Req.Form, r.Req.Body = map[string]string{}, map[string]string{}, []byte{}
			r.Resp.Header, r.Resp.Body = nil, nil
			r.Reads, r.Scans, r.Writes = []ReadDep{}, nil, []WriteDep{}
			r.Calls, r.Nondet, r.Effects = []Call{}, []Nondet{}, nil
		},
		"extremes": func(r *Record) {
			r.TS = math.MinInt64
			r.RepairGen = math.MaxInt
			r.Resp.Status = -1
			r.Reads = []ReadDep{{Key: vdb.Key{}, TS: math.MaxInt64, Hash: math.MaxUint64}, {TS: -10, Hash: 0}}
			r.Scans = []ScanDep{{Model: "m", Hash: math.MaxUint64}}
			r.Writes = []WriteDep{{Key: vdb.Key{Model: "m", ID: "1"}, TS: math.MinInt64}}
			r.Nondet = []Nondet{{Kind: "now", Value: math.MinInt64}, {Kind: "rand", Value: 0}}
		},
		"flags": func(r *Record) {
			r.Skipped, r.Synthetic, r.RepairGen = true, true, 3
			r.From, r.ClientRespID, r.NotifierURL = "peer", "peer-resp-1", "http://peer/aire/notify"
			r.Calls = []Call{
				{Seq: 0, Target: "peer", Tentative: true, Req: wire.NewRequest("POST", "/x"), Resp: wire.Response{Status: wire.StatusTimeout}},
				{Seq: 1, Target: "peer", Failed: true, RespID: "r", RemoteReqID: "q"},
				{Seq: 2, Tentative: true, Failed: true},
			}
			r.Effects = []Effect{{Seq: 7, Kind: "email", Payload: "daily <summary>"}}
		},
	}
	for name, s := range strs {
		cases["string/"+name] = func(r *Record) {
			r.ID, r.From = s, s
			r.Req = wire.NewRequest(s, s).WithForm(s, s, "k", s)
			r.Req.Header = map[string]string{s: s}
			r.Resp = wire.NewResponse(200, s)
			r.Reads = []ReadDep{{Key: vdb.Key{Model: s, ID: s}}}
			r.Effects = []Effect{{Kind: s, Payload: s}}
		}
	}
	for n := 0; n <= 7; n++ {
		cases[fmt.Sprintf("body/%d", n)] = func(r *Record) { r.Req.Body = make([]byte, n) }
	}
	for name, mut := range cases {
		r := base()
		mut(r)
		checkEncodedLen(t, name, r)
	}
}

// fill sets every exported field reachable from v to a non-zero value, so
// a field the sizer does not know about changes json.Marshal's length.
func fill(t *testing.T, v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fill(t, v.Field(i), path+"."+f.Name)
			}
		}
	case reflect.String:
		v.SetString("v<&>\u2029\u00e9")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-12345)
	case reflect.Uint64:
		v.SetUint(math.MaxUint64)
	case reflect.Map:
		if v.Type() != reflect.TypeOf(map[string]string(nil)) {
			t.Fatalf("%s: no sizer for %s", path, v.Type())
		}
		v.Set(reflect.ValueOf(map[string]string{"k<": "v>", "k2": ""}))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte("body"))
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fill(t, s.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
		v.Set(s)
	default:
		t.Fatalf("%s: no sizer for kind %s", path, v.Kind())
	}
}

func TestEncodedLenCoversEveryField(t *testing.T) {
	r := &Record{}
	fill(t, reflect.ValueOf(r).Elem(), "Record")
	checkEncodedLen(t, "every field set", r)
}

func FuzzEncodedLen(f *testing.F) {
	f.Add("svc-req-1", "<b>&", "h\u00e9llo\u2028", []byte("body"), int64(-5), uint64(1), true, false)
	f.Add("", "\x00\xff", "\"\\\t", []byte{}, int64(math.MinInt64), uint64(math.MaxUint64), false, true)
	f.Fuzz(func(t *testing.T, a, b, c string, body []byte, n int64, h uint64, t1, t2 bool) {
		r := &Record{
			ID: a, TS: n, From: b, ClientRespID: c, NotifierURL: a,
			Req:    wire.Request{Method: a, Path: b, Header: map[string]string{a: b, c: ""}, Form: map[string]string{b: c}, Body: body},
			Resp:   wire.Response{Status: int(n), Header: map[string]string{c: a}, Body: []byte(c)},
			Reads:  []ReadDep{{Key: vdb.Key{Model: a, ID: b}, TS: n, Hash: h}},
			Scans:  []ScanDep{{Model: c, Hash: h}},
			Writes: []WriteDep{{Key: vdb.Key{Model: b, ID: c}, TS: -n}},
			Calls: []Call{{Seq: int(n), Target: a, RespID: b, RemoteReqID: c, Tentative: t1, Failed: t2,
				Req: wire.Request{Method: c, Body: body}, Resp: wire.Response{Status: int(h)}}},
			Nondet:    []Nondet{{Kind: b, Value: n}},
			Effects:   []Effect{{Seq: int(h), Kind: c, Payload: a}},
			Skipped:   t1,
			Synthetic: t2,
			RepairGen: int(n),
		}
		checkEncodedLen(t, "fuzz", r)
		if len(body) == 0 {
			r.Req, r.Reads, r.Calls, r.Effects = wire.Request{}, nil, []Call{}, nil
			checkEncodedLen(t, "fuzz-sparse", r)
		}
	})
}

// TestAppendSizesWithoutEncoding is the allocation guard on the sizing
// step of a non-sampled Append: a 500-read record (the Table 4 Askbot
// read) is measured, not encoded.
func TestAppendSizesWithoutEncoding(t *testing.T) {
	r := rec("svc-req-1", 10)
	r.Scans = []ScanDep{{Model: "question", Hash: 1}}
	for i := 0; i < 500; i++ {
		r.Reads = append(r.Reads, ReadDep{Key: vdb.Key{Model: "question", ID: fmt.Sprintf("q%d", i)}, TS: int64(i), Hash: uint64(i) * 2654435761})
	}
	l := New(true)
	allocs := testing.AllocsPerRun(100, func() {
		l.samples = 1 // off the 1-in-16 gzip sample
		l.accountSize(r)
	})
	if allocs != 0 {
		t.Fatalf("sizing a non-sampled record allocated %.0f times; want 0", allocs)
	}
}

// TestDigitCounts pins uintLen and intLen to strconv at every power-of-ten
// boundary (10^k-1, 10^k, 10^k+1, negated for intLen), around every power
// of two (where bits.Len64 steps), and at 0, MaxUint64, MaxInt64 and
// MinInt64.
func TestDigitCounts(t *testing.T) {
	us := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1}
	for p := uint64(1); ; p *= 10 {
		us = append(us, p-1, p, p+1)
		if p > math.MaxUint64/10 {
			break
		}
	}
	for b := 1; b < 64; b++ {
		us = append(us, 1<<b-1, 1<<b, 1<<b+1)
	}
	for _, u := range us {
		if got, want := uintLen(u), len(strconv.FormatUint(u, 10)); got != want {
			t.Errorf("uintLen(%d) = %d, want %d", u, got, want)
		}
		for _, v := range []int64{int64(u), -int64(u)} {
			if got, want := intLen(v), len(strconv.FormatInt(v, 10)); got != want {
				t.Errorf("intLen(%d) = %d, want %d", v, got, want)
			}
		}
	}
	for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64} {
		if got, want := intLen(v), len(strconv.FormatInt(v, 10)); got != want {
			t.Errorf("intLen(%d) = %d, want %d", v, got, want)
		}
	}
}
