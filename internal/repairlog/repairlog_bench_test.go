package repairlog

import (
	"fmt"
	"testing"

	"aire/internal/vdb"
	"aire/internal/wire"
)

func benchRecord(i int) *Record {
	r := &Record{
		ID:  fmt.Sprintf("svc-req-%d", i),
		TS:  int64(i+1) * 1000,
		Req: wire.NewRequest("POST", "/ask").WithForm("title", "benchmark question", "body", "some body text that is fairly typical in length for a post"),
	}
	r.Resp = wire.NewResponse(200, "q-svc-req-1.0")
	for j := 0; j < 6; j++ {
		r.Reads = append(r.Reads, ReadDep{Key: vdb.Key{Model: "question", ID: fmt.Sprintf("q%d", j)}, TS: int64(j), Hash: uint64(j) + 1})
	}
	r.Writes = []WriteDep{{Key: vdb.Key{Model: "question", ID: "q1"}, TS: int64(i+1) * 1000}}
	r.Nondet = []Nondet{{Kind: "now", Value: 12345}}
	return r
}

// BenchmarkAppendCompressed measures the per-request logging cost with
// compression-ratio sampling (the production configuration).
func BenchmarkAppendCompressed(b *testing.B) {
	l := New(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(l.AppBytes())/float64(l.samples), "bytes/rec")
}

// benchCallLog builds a log of n records, each with one Aire-identified
// call to "peer".
func benchCallLog(n int) *Log {
	l := New(false)
	for i := 0; i < n; i++ {
		r := benchRecord(i)
		r.Calls = []Call{{Target: "peer", RespID: fmt.Sprintf("svc-resp-%d", i), RemoteReqID: fmt.Sprintf("peer-req-%d", i)}}
		l.Append(r)
	}
	return l
}

// BenchmarkFindByCallRespID measures the indexed O(1) lookup against the
// retained pre-index reference (scan every call of every record). The
// lookup runs on the hot incoming path for every replace_response delivery
// and every replace/create acknowledgment.
func BenchmarkFindByCallRespID(b *testing.B) {
	l := benchCallLog(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.FindByCallRespID("svc-resp-1999")
	}
}

func BenchmarkFindByCallRespIDLinear(b *testing.B) {
	l := benchCallLog(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.findByCallRespIDLinear("svc-resp-1999")
	}
}

// BenchmarkNeighborCalls measures the binary-search create-anchor lookup
// against the retained full-timeline reference.
func BenchmarkNeighborCalls(b *testing.B) {
	l := benchCallLog(2000)
	ts := int64(1000 * 1000) // middle of the timeline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.NeighborCalls("peer", ts)
	}
}

func BenchmarkNeighborCallsLinear(b *testing.B) {
	l := benchCallLog(2000)
	ts := int64(1000 * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.neighborCallsLinear("peer", ts)
	}
}

// BenchmarkAppendManyDeps measures a normal-path append of the Askbot
// question-list record on a compressed log: 500 reads of one author key,
// or 500 reads of distinct keys. It is an inner-loop measurement for the
// index and sizing work per dependency; end-to-end claims cite bench/.
func BenchmarkAppendManyDeps(b *testing.B) {
	for _, c := range []struct {
		name string
		key  func(j int) vdb.Key
	}{
		{"same-key", func(int) vdb.Key { return vdb.Key{Model: "user", ID: "author"} }},
		{"distinct-keys", func(j int) vdb.Key { return vdb.Key{Model: "question", ID: fmt.Sprintf("q%d", j)} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			reads := make([]ReadDep, 500)
			for j := range reads {
				reads[j] = ReadDep{Key: c.key(j), TS: int64(j + 1), Hash: uint64(j+1) * 0x9E3779B97F4A7C15}
			}
			recs := make([]*Record, b.N)
			for i := range recs {
				recs[i] = &Record{
					ID:    fmt.Sprintf("svc-req-%d", i),
					TS:    int64(i + 1),
					Req:   wire.NewRequest("GET", "/questions"),
					Resp:  wire.NewResponse(200, "<ul></ul>"),
					Reads: reads,
					Scans: []ScanDep{{Model: "question", Hash: 1}},
				}
			}
			l := New(true)
			b.ReportAllocs()
			b.ResetTimer()
			for _, r := range recs {
				if err := l.Append(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
