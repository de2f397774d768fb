package repairlog

import (
	"encoding/base64"
	"math/bits"
	"unicode/utf8"

	"aire/internal/vdb"
	"aire/internal/wire"
)

// This file sizes a record's JSON encoding without producing it. Table 4's
// raw log size is len(json.Marshal(record)) summed over every append; the
// walk below returns exactly that number, so only the gzip-ratio sample
// (accountSize) still has to encode. It mirrors encoding/json field by
// field: a field added to Record or a nested type must be added here too
// (TestEncodedLenCoversEveryField fails until it is).
//
// Every struct sized here has at least one field without omitempty, so an
// object is never empty: it costs 1 for '{' plus, per field, the field's
// bytes and 1 for the ',' or '}' after it. Non-empty arrays and maps
// follow the same rule with '[' and ']'.

// encodedLen returns len(json.Marshal(r)) without allocating.
func encodedLen(r *Record) int {
	n := 1 + strField("id", r.ID) + intField("ts", r.TS) + optStrField("from", r.From) +
		optStrField("client_resp_id", r.ClientRespID) + optStrField("notifier_url", r.NotifierURL) +
		field("req", requestLen(&r.Req)) + field("resp", responseLen(&r.Resp))
	n += sliceField("reads", r.Reads, func(d *ReadDep) int {
		return 1 + field("key", keyLen(d.Key)) + intField("ts", d.TS) + field("hash", uintLen(d.Hash))
	})
	n += sliceField("scans", r.Scans, func(d *ScanDep) int {
		return 1 + strField("model", d.Model) + field("hash", uintLen(d.Hash))
	})
	n += sliceField("writes", r.Writes, func(d *WriteDep) int {
		return 1 + field("key", keyLen(d.Key)) + intField("ts", d.TS)
	})
	n += sliceField("calls", r.Calls, callLen)
	n += sliceField("nondet", r.Nondet, func(d *Nondet) int {
		return 1 + strField("kind", d.Kind) + intField("value", d.Value)
	})
	n += sliceField("effects", r.Effects, func(e *Effect) int {
		return 1 + intField("seq", int64(e.Seq)) + strField("kind", e.Kind) + strField("payload", e.Payload)
	})
	n += boolField("skipped", r.Skipped) + boolField("synthetic", r.Synthetic)
	if r.RepairGen != 0 {
		n += intField("repair_gen", int64(r.RepairGen))
	}
	return n
}

func callLen(c *Call) int {
	return 1 + intField("seq", int64(c.Seq)) + strField("target", c.Target) +
		strField("resp_id", c.RespID) + strField("remote_req_id", c.RemoteReqID) +
		field("req", requestLen(&c.Req)) + field("resp", responseLen(&c.Resp)) +
		boolField("tentative", c.Tentative) + boolField("failed", c.Failed)
}

func requestLen(q *wire.Request) int {
	return 1 + strField("method", q.Method) + strField("path", q.Path) +
		mapField("header", q.Header) + mapField("form", q.Form) + bytesField("body", q.Body)
}

func responseLen(p *wire.Response) int {
	return 1 + intField("status", int64(p.Status)) + mapField("header", p.Header) +
		bytesField("body", p.Body)
}

// keyLen sizes a vdb.Key, which has no JSON tags.
func keyLen(k vdb.Key) int { return 1 + strField("Model", k.Model) + strField("ID", k.ID) }

// sliceField sizes an omitempty array whose elements elemLen sizes.
func sliceField[T any](name string, s []T, elemLen func(*T) int) int {
	if len(s) == 0 {
		return 0
	}
	v := 1
	for i := range s {
		v += elemLen(&s[i]) + 1
	}
	return field(name, v)
}

// field sizes `"name":` followed by a value of v bytes and the separator
// after it.
func field(name string, v int) int { return len(name) + 4 + v }

func strField(name, s string) int { return field(name, strLen(s)) }

func intField(name string, v int64) int { return field(name, intLen(v)) }

func optStrField(name, s string) int {
	if s == "" {
		return 0
	}
	return strField(name, s)
}

func boolField(name string, b bool) int {
	if !b {
		return 0
	}
	return field(name, len("true"))
}

func mapField(name string, m map[string]string) int {
	if len(m) == 0 {
		return 0
	}
	v := 1
	for k, s := range m {
		v += strLen(k) + 1 + strLen(s) + 1
	}
	return field(name, v)
}

func bytesField(name string, b []byte) int {
	if len(b) == 0 {
		return 0
	}
	return field(name, base64.StdEncoding.EncodedLen(len(b))+2)
}

func intLen(v int64) int {
	if v < 0 {
		return 1 + uintLen(uint64(-v)) // -MinInt64 wraps to its own magnitude
	}
	return uintLen(uint64(v))
}

// pow10 holds 10^0 … 10^19, every power of ten a uint64 can hold.
var pow10 = func() (t [20]uint64) {
	t[0] = 1
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1] * 10
	}
	return t
}()

// uintLen is the number of decimal digits in u. With v = u|1 (0 has one
// digit, as 1 does) and b = bits.Len64(v), 2^(b-1) <= v < 2^b, so
// b·1233/4096, which is floor(b·log10 2), is the digit count or one less;
// one comparison with a power of ten settles which.
func uintLen(u uint64) int {
	v := u | 1
	n := bits.Len64(v) * 1233 >> 12
	if v < pow10[n] {
		return n
	}
	return n + 1
}

// asciiLen is the encoded length of each ASCII byte inside a JSON string
// under encoding/json's HTML-safe escaping.
var asciiLen = func() (t [utf8.RuneSelf]uint8) {
	for b := range t {
		switch {
		case b == '"' || b == '\\' || b == '\b' || b == '\f' || b == '\n' || b == '\r' || b == '\t':
			t[b] = 2
		case b < 0x20 || b == '<' || b == '>' || b == '&':
			t[b] = 6 // \u00XX
		default:
			t[b] = 1
		}
	}
	return t
}()

// strLen is the encoded length of s as a JSON string, quotes included.
func strLen(s string) int {
	n := 2
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			n += int(asciiLen[b])
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if (c == utf8.RuneError && size == 1) || c == '\u2028' || c == '\u2029' {
			n += 6 // \ufffd, \u2028, \u2029
		} else {
			n += size
		}
		i += size
	}
	return n
}
