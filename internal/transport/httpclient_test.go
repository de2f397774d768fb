package transport

import (
	"net/http"
	"testing"
	"time"
)

// A nil Client gets the pooled default: tuned transport plus the default
// timeout (DefaultTransport's MaxIdleConnsPerHost=2 would serialize pump
// fan-out behind connection churn).
func TestHTTPClientDefaultIsPooled(t *testing.T) {
	c := &HTTPCaller{}
	cl := c.httpClient()
	if cl.Timeout != DefaultHTTPTimeout {
		t.Fatalf("Timeout = %v, want %v", cl.Timeout, DefaultHTTPTimeout)
	}
	tr, ok := cl.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("Transport is %T, want *http.Transport", cl.Transport)
	}
	if tr.MaxIdleConnsPerHost != DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConnsPerHost = %d, want %d", tr.MaxIdleConnsPerHost, DefaultMaxIdleConnsPerHost)
	}
	if tr.MaxIdleConns != DefaultMaxIdleConns {
		t.Fatalf("MaxIdleConns = %d, want %d", tr.MaxIdleConns, DefaultMaxIdleConns)
	}
	if tr.IdleConnTimeout != DefaultIdleConnTimeout {
		t.Fatalf("IdleConnTimeout = %v, want %v", tr.IdleConnTimeout, DefaultIdleConnTimeout)
	}
	if c.httpClient() != cl {
		t.Fatal("effective client must be resolved exactly once")
	}
}

// A caller-supplied bare Client is copied, never mutated, and gets the
// pooled transport and default timeout instead of running without either.
func TestHTTPClientComposesWithSuppliedClient(t *testing.T) {
	supplied := &http.Client{}
	c := &HTTPCaller{Client: supplied}
	cl := c.httpClient()
	if cl == supplied {
		t.Fatal("effective client must be a copy, not the caller's value")
	}
	if supplied.Timeout != 0 || supplied.Transport != nil {
		t.Fatal("caller's client must not be mutated")
	}
	if cl.Timeout != DefaultHTTPTimeout {
		t.Fatalf("Timeout = %v, want default %v", cl.Timeout, DefaultHTTPTimeout)
	}
	tr := cl.Transport.(*http.Transport)
	if tr.MaxIdleConnsPerHost != DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConnsPerHost = %d, want default %d", tr.MaxIdleConnsPerHost, DefaultMaxIdleConnsPerHost)
	}
}

// A supplied Client that already carries a Timeout or Transport keeps them.
func TestHTTPClientSuppliedFieldsWin(t *testing.T) {
	own := &http.Transport{MaxIdleConnsPerHost: 3}
	c := &HTTPCaller{Client: &http.Client{Timeout: 250 * time.Millisecond, Transport: own}}
	cl := c.httpClient()
	if cl.Timeout != 250*time.Millisecond {
		t.Fatalf("Timeout = %v, want the client's own 250ms", cl.Timeout)
	}
	if cl.Transport != own {
		t.Fatal("caller's Transport must be kept verbatim")
	}
}
