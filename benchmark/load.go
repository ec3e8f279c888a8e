package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// load is the closed-loop client side: each client sends its next request
// only after the previous reply is read in full, because the callers this
// tier serves are analysis clients that wait for each answer. One keep-alive
// connection per client.
type load struct {
	clients int
	tp      *http.Transport
	http    *http.Client
}

func newLoad(clients int) *load {
	tp := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, IdleConnTimeout: time.Minute}
	return &load{clients: clients, tp: tp, http: &http.Client{Transport: tp}}
}

func (l *load) close() { l.tp.CloseIdleConnections() }

// sampleEvery is the share of replies kept for the brute-force replay: 1 %.
const sampleEvery = 100

// reply is what the client saw for one request.
type reply struct {
	ns      int64 // send to last body byte
	start   int64 // tracer clock, traced pass only
	ok      bool  // 200 and not degraded
	note    string
	body    []byte // kept for every sampleEvery-th query
	traceID uint64 // X-Trace-Id, when the server traces requests
	client  int
}

var degradedMark = []byte(`"degraded":true`)

func (l *load) get(url string, buf *bytes.Buffer) (r reply) {
	t0 := time.Now()
	resp, err := l.http.Get(url)
	if err != nil {
		r.ns = int64(time.Since(t0))
		r.note = err.Error()
		return r
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.ns = int64(time.Since(t0))
	switch {
	case err != nil:
		r.note = err.Error()
	case resp.StatusCode != http.StatusOK:
		r.note = fmt.Sprintf("status %d: %.120s", resp.StatusCode, buf.Bytes())
	case bytes.Contains(buf.Bytes(), degradedMark):
		r.note = "degraded answer"
	default:
		r.ok = true
	}
	if id := resp.Header.Get("X-Trace-Id"); id != "" {
		r.traceID, _ = strconv.ParseUint(id, 10, 64) // the handler wrote it with FormatUint
	}
	return r
}

// runBlock sends urls[lo:hi], client j taking every clients-th of them, and
// waits for all replies: the block's wall time is what the tier needed to
// answer hi-lo requests at this concurrency. tr is nil outside the traced pass.
func (l *load) runBlock(urls []string, lo, hi int, out []reply, tr *tracer) int64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for j := 0; j < l.clients; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := lo + j; i < hi; i += l.clients {
				start := int64(0)
				if tr != nil {
					start = tr.now()
				}
				r := l.get(urls[i], &buf)
				r.start, r.client = start, j
				if i%sampleEvery == 0 {
					r.body = append([]byte(nil), buf.Bytes()...)
				}
				out[i] = r
			}
		}(j)
	}
	wg.Wait()
	return int64(time.Since(t0))
}
