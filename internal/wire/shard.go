package wire

import (
	"strconv"
	"strings"
)

// A shard of a horizontally partitioned service is named "svc#i", and every
// identifier it mints carries that name as its prefix ("svc#3-req-42"), so
// a carrier naming a request, anchor or token names its owning shard too.
// This file is the one place that knows the format.

// ShardName returns the transport name of base's i-th shard.
func ShardName(base string, i int) string {
	return base + "#" + strconv.Itoa(i)
}

// ShardBaseName strips the shard qualifier from a transport name:
// "svc#3" -> "svc", "svc" -> "svc".
func ShardBaseName(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}

// ShardIndex parses the shard index out of a shard name of base ("base#3")
// or an identifier one of base's shards minted ("base#3-req-17"). ok is
// false for anything else, including another service's names and an index
// too long to be real. The caller checks the index against its shard count.
func ShardIndex(base, id string) (i int, ok bool) {
	if len(id) <= len(base) || id[len(base)] != '#' || id[:len(base)] != base {
		return 0, false
	}
	digits := id[len(base)+1:]
	if j := strings.IndexByte(digits, '-'); j >= 0 {
		digits = digits[:j]
	}
	if digits == "" || len(digits) > 6 {
		return 0, false
	}
	for k := 0; k < len(digits); k++ {
		ch := digits[k]
		if ch < '0' || ch > '9' {
			return 0, false
		}
		i = i*10 + int(ch-'0')
	}
	return i, true
}
