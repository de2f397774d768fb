package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
)

// Inputs are generated here from the seed and nowhere else: the system
// under test only ever sees the requests built from them. The op's sequence
// number is carried in its key ("k<seq>.…", "w<wave>.…") so the tracing
// wrappers can attribute a request to its op without changing the request.

const (
	minValueBytes = 16
	maxValueBytes = 256
)

// putOp is one generated key-value write.
type putOp struct {
	Seq int64
	Key string
	Val string
}

// askOp is one generated Askbot question.
type askOp struct {
	Seq   int64
	Title string
	Body  string
}

// generator hands out the seeded op stream in order. It is safe for the
// two closed-loop clients to share: the op *list* is a pure function of
// the seed, only which client runs which op varies.
type generator struct {
	mu  sync.Mutex
	rng *rand.Rand
	seq int64
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed))}
}

const valueAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func (g *generator) textLocked(n int) string {
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < n; i++ {
		if i%8 == 7 {
			b.WriteByte(' ')
			continue
		}
		b.WriteByte(valueAlphabet[g.rng.Intn(len(valueAlphabet))])
	}
	return b.String()
}

func (g *generator) valueLocked() string {
	return g.textLocked(minValueBytes + g.rng.Intn(maxValueBytes-minValueBytes+1))
}

// put returns the next write: a fresh key and a 16–256 byte value.
func (g *generator) put() putOp {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	return putOp{
		Seq: g.seq,
		Key: fmt.Sprintf("k%d.%04x", g.seq, g.rng.Intn(1<<16)),
		Val: g.valueLocked(),
	}
}

// ask returns the next question: a title and a 16–256 byte body.
func (g *generator) ask() askOp {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	return askOp{
		Seq:   g.seq,
		Title: fmt.Sprintf("q%d %s", g.seq, g.textLocked(24)),
		Body:  g.valueLocked(),
	}
}

// waveKeys names the keys of one repair wave: the attacked key, its
// dependents (each a copy of the attacked key), and a clean key with a
// clean dependent that the repair must leave alone.
type waveKeys struct {
	Wave       int64
	Attack     putOp
	Dependents []string
	Clean      putOp
	CleanCopy  string
}

func (g *generator) wave(dependents int) waveKeys {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	w := waveKeys{Wave: g.seq}
	w.Attack = putOp{Seq: g.seq, Key: fmt.Sprintf("w%d.x", g.seq), Val: g.valueLocked()}
	for j := 0; j < dependents; j++ {
		w.Dependents = append(w.Dependents, fmt.Sprintf("w%d.d%d", g.seq, j))
	}
	w.Clean = putOp{Seq: g.seq, Key: fmt.Sprintf("w%d.c", g.seq), Val: g.valueLocked()}
	w.CleanCopy = fmt.Sprintf("w%d.e", g.seq)
	return w
}

// opOfKey recovers the op sequence number a generated key carries, or -1.
func opOfKey(key string) int64 {
	if len(key) < 2 || (key[0] != 'k' && key[0] != 'w') {
		return -1
	}
	var n int64
	i := 1
	for ; i < len(key) && key[i] >= '0' && key[i] <= '9'; i++ {
		n = n*10 + int64(key[i]-'0')
	}
	if i == 1 {
		return -1
	}
	return n
}

// opListHash fingerprints the first n ops each workload family would issue
// for a seed, so a test (and a reader of two result files) can tell that
// two runs were given the same inputs.
func opListHash(seed int64, n int) string {
	h := fnv.New64a()
	g := newGenerator(seed)
	for i := 0; i < n; i++ {
		p := g.put()
		fmt.Fprintf(h, "%s=%s;", p.Key, p.Val)
	}
	g = newGenerator(seed)
	for i := 0; i < n; i++ {
		a := g.ask()
		fmt.Fprintf(h, "%s|%s;", a.Title, a.Body)
	}
	g = newGenerator(seed)
	for i := 0; i < n; i++ {
		w := g.wave(waveDependents)
		fmt.Fprintf(h, "%s=%s,%s=%s;", w.Attack.Key, w.Attack.Val, w.Clean.Key, w.Clean.Val)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
